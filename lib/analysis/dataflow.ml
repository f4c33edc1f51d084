open Bv_isa
open Bv_ir

type direction =
  | Forward
  | Backward

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) = struct
  type solution =
    { s_in : L.t Label.Tbl.t;
      s_out : L.t Label.Tbl.t
    }

  let fact_in s l = Label.Tbl.find_opt s.s_in l
  let fact_out s l = Label.Tbl.find_opt s.s_out l

  let solve ~direction ~boundary ~transfer proc =
    let blocks = Cfg.block_index proc in
    let rpo = Cfg.reverse_postorder_indexed blocks proc in
    let order = match direction with Forward -> rpo | Backward -> List.rev rpo in
    let in_order = Label.Tbl.create 64 in
    List.iter (fun l -> Label.Tbl.replace in_order l ()) order;
    let preds = Cfg.predecessor_map proc in
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
