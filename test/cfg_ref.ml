(* The label-table graph kernels the indexed {!Bv_ir.Cfg} replaced, kept
   verbatim as references for the differential tests: the CFG helpers,
   the [Set.Make (String)] dominator fixpoint and the label-keyed
   dataflow engine. Also a generator of small arbitrary procedures:
   unreachable blocks, irreducible cycles and edges back into the entry
   all occur. *)

open Bv_isa
open Bv_ir

(* ------------------------------------------------------ CFG helpers *)

let predecessor_map proc =
  let preds = Label.Tbl.create 64 in
  List.iter
    (fun b -> Label.Tbl.replace preds b.Block.label [])
    proc.Proc.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          match Label.Tbl.find_opt preds s with
          | Some ps -> Label.Tbl.replace preds s (b.Block.label :: ps)
          | None -> ())
        (Term.successors b.Block.term))
    proc.Proc.blocks;
  preds

(* The first block of each label wins, as in [Proc.find_block]. *)
let block_index proc =
  let index = Label.Tbl.create 64 in
  List.iter
    (fun b ->
      if not (Label.Tbl.mem index b.Block.label) then
        Label.Tbl.add index b.Block.label b)
    proc.Proc.blocks;
  index

let reverse_postorder_indexed index proc =
  let visited = Label.Tbl.create 64 in
  let order = ref [] in
  let rec visit label =
    if not (Label.Tbl.mem visited label) then begin
      Label.Tbl.replace visited label ();
      (match Label.Tbl.find_opt index label with
      | Some b -> List.iter visit (Term.successors b.Block.term)
      | None -> ());
      order := label :: !order
    end
  in
  visit proc.Proc.entry;
  !order

let reverse_postorder proc = reverse_postorder_indexed (block_index proc) proc

(* ------------------------------------------------------- dominators *)

module Dominators = struct
  module Sset = Set.Make (String)

  type t =
    { entry : Label.t;
      doms : Sset.t Label.Tbl.t  (* reachable block -> dominators *)
    }

  let compute proc =
    let rpo = reverse_postorder proc in
    let reachable = Sset.of_list rpo in
    let preds_all = predecessor_map proc in
    let preds l =
      List.filter
        (fun p -> Sset.mem p reachable)
        (Option.value (Label.Tbl.find_opt preds_all l) ~default:[])
    in
    let doms = Label.Tbl.create 64 in
    let entry = proc.Proc.entry in
    Label.Tbl.replace doms entry (Sset.singleton entry);
    List.iter
      (fun l ->
        if not (Label.equal l entry) then Label.Tbl.replace doms l reachable)
      rpo;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if not (Label.equal l entry) then begin
            let inter =
              match preds l with
              | [] -> Sset.singleton l
              | p :: rest ->
                List.fold_left
                  (fun acc q -> Sset.inter acc (Label.Tbl.find doms q))
                  (Label.Tbl.find doms p) rest
            in
            let now = Sset.add l inter in
            if not (Sset.equal now (Label.Tbl.find doms l)) then begin
              Label.Tbl.replace doms l now;
              changed := true
            end
          end)
        rpo
    done;
    { entry; doms }

  let dominates t a b =
    if Label.equal a b then true
    else
      match Label.Tbl.find_opt t.doms b with
      | Some s -> Sset.mem a s
      | None -> false

  let idom t b =
    match Label.Tbl.find_opt t.doms b with
    | None -> None
    | Some s ->
      if Label.equal b t.entry then None
      else
        (* the strict dominator dominated by every other strict dominator *)
        let strict = Sset.remove b s in
        Sset.fold
          (fun cand acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if
                Sset.for_all
                  (fun other ->
                    Label.equal other cand || dominates t other cand)
                  strict
              then Some cand
              else None)
          strict None

  let dominator_tree t =
    let children = Hashtbl.create 16 in
    Label.Tbl.iter
      (fun b _ ->
        match idom t b with
        | Some p ->
          let existing =
            Option.value (Hashtbl.find_opt children p) ~default:[]
          in
          Hashtbl.replace children p (b :: existing)
        | None -> ())
      t.doms;
    Label.Tbl.fold
      (fun b _ acc ->
        (b, List.sort compare (Option.value (Hashtbl.find_opt children b) ~default:[]))
        :: acc)
      t.doms []
    |> List.sort compare
end

(* --------------------------------------------------------- dataflow *)

module Dataflow (L : Bv_analysis.Dataflow.LATTICE) = struct
  type solution =
    { s_in : L.t Label.Tbl.t;
      s_out : L.t Label.Tbl.t
    }

  let fact_in s l = Label.Tbl.find_opt s.s_in l
  let fact_out s l = Label.Tbl.find_opt s.s_out l

  let solve ~direction ~boundary ~transfer proc =
    let open Bv_analysis.Dataflow in
    let blocks = block_index proc in
    let rpo = reverse_postorder_indexed blocks proc in
    let order = match direction with Forward -> rpo | Backward -> List.rev rpo in
    let in_order = Label.Tbl.create 64 in
    List.iter (fun l -> Label.Tbl.replace in_order l ()) order;
    let preds = predecessor_map proc in
    let pred_labels l = Option.value (Label.Tbl.find_opt preds l) ~default:[] in
    (* "upstream" feeds a block's input fact; "downstream" must be revisited
       when its output fact changes. *)
    let upstream b =
      match direction with
      | Forward -> pred_labels b.Block.label
      | Backward -> Term.successors b.Block.term
    in
    let downstream b =
      match direction with
      | Forward -> Term.successors b.Block.term
      | Backward -> pred_labels b.Block.label
    in
    let at_boundary b =
      match direction with
      | Forward -> Label.equal b.Block.label proc.Proc.entry
      | Backward -> Term.successors b.Block.term = []
    in
    let s_in = Label.Tbl.create 64 in
    let s_out = Label.Tbl.create 64 in
    (* The transfer's input is the block-in for forward problems and the
       block-out for backward ones; its output is the other. *)
    let input_tbl = match direction with Forward -> s_in | Backward -> s_out in
    let output_tbl = match direction with Forward -> s_out | Backward -> s_in in
    let queue = Queue.create () in
    let queued = Label.Tbl.create 64 in
    let enqueue l =
      if
        Label.Tbl.mem blocks l
        && Label.Tbl.mem in_order l
        && not (Label.Tbl.mem queued l)
      then begin
        Label.Tbl.replace queued l ();
        Queue.add l queue
      end
    in
    List.iter enqueue order;
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      Label.Tbl.remove queued l;
      let b = Label.Tbl.find blocks l in
      let sources =
        List.filter_map (fun s -> Label.Tbl.find_opt output_tbl s) (upstream b)
      in
      let sources = if at_boundary b then boundary :: sources else sources in
      match sources with
      | [] -> () (* no facts yet; a later upstream visit will re-enqueue *)
      | f :: rest ->
        let input = List.fold_left L.join f rest in
        Label.Tbl.replace input_tbl l input;
        let output = transfer b input in
        let changed =
          match Label.Tbl.find_opt output_tbl l with
          | Some prev -> not (L.equal prev output)
          | None -> true
        in
        if changed then begin
          Label.Tbl.replace output_tbl l output;
          List.iter enqueue (downstream b)
        end
    done;
    { s_in; s_out }
end

(* -------------------------------------------------------- generator *)

let label i = Printf.sprintf "b%d" i

(* A procedure of 1-12 blocks "b0".."b<n-1>" whose terminators draw their
   targets uniformly from all blocks, the entry included, with small
   bodies over r1-r7. *)
let gen_proc =
  let open QCheck2.Gen in
  let* n = int_range 1 12 in
  let reg = map Reg.make (int_range 1 7) in
  let instr =
    oneof
      [ map3
          (fun dst src1 r ->
            Instr.Alu { op = Instr.Add; dst; src1; src2 = Instr.Reg r })
          reg reg reg;
        map2 (fun dst k -> Instr.Mov { dst; src = Instr.Imm k }) reg
          (int_range 0 3);
        map2
          (fun dst base ->
            Instr.Load { dst; base; offset = 0; speculative = false })
          reg reg;
        map2 (fun src base -> Instr.Store { src; base; offset = 8 }) reg reg
      ]
  in
  let target = map label (int_range 0 (n - 1)) in
  let site = int_range 1 3 in
  let term i =
    oneof
      ([ map (fun l -> Term.Jump l) target;
         map3
           (fun src (taken, not_taken) id ->
             Term.Branch { on = true; src; taken; not_taken; id })
           reg (pair target target) site;
         map2
           (fun (taken, not_taken) id -> Term.Predict { taken; not_taken; id })
           (pair target target) site;
         map3
           (fun src (mispredict, fallthrough) (id, predicted_taken) ->
             Term.Resolve
               { on = false; src; mispredict; fallthrough; predicted_taken;
                 id })
           reg (pair target target) (pair site bool);
         pure Term.Halt;
         pure Term.Ret
       ]
      @
      if i + 1 < n then
        [ pure (Term.Call { target = "callee"; return_to = label (i + 1) }) ]
      else [])
  in
  let* blocks =
    flatten_l
      (List.init n (fun i ->
           map2
             (fun body term -> Block.make ~label:(label i) ~body ~term)
             (list_size (int_range 0 3) instr)
             (term i)))
  in
  pure (Proc.make ~name:"p" blocks)

let print_proc p = Format.asprintf "%a" Proc.pp p
