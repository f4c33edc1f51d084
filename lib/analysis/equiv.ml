open Bv_isa
open Bv_ir
module S = Symexec
module Lset = Set.Make (Label)
module Regset = Liveness.Regset

let pass = "equiv"

type endpoint =
  | Cut of Label.t
  | Halted
  | Returned
  | Called of Label.t * Label.t

let endpoint_name = function
  | Cut l -> Printf.sprintf "cutpoint %s" l
  | Halted -> "halt"
  | Returned -> "ret"
  | Called (t, r) -> Printf.sprintf "call %s (resuming %s)" t r

(* A region path: the branch literals it assumed — (condition term id,
   truth of [term <> 0]) — and the symbolic state at its endpoint. *)
type path = { endpoint : endpoint; lits : (int * bool) list; state : S.state }

(* [at] is the block whose terminator forked the overflowing path,
   [explored] how many paths had been emitted when the budget tripped —
   both surfaced in the diagnostic so the hot fork is findable without
   re-running under a tracer. *)
exception Budget of { at : Label.t; explored : int }

let endpoint_equal a b =
  match (a, b) with
  | Cut l, Cut l' -> Label.equal l l'
  | Halted, Halted | Returned, Returned -> true
  | Called (t, r), Called (t', r') -> Label.equal t t' && Label.equal r r'
  | (Cut _ | Halted | Returned | Called _), _ -> false

(* Literal lists are short; these scans compare their ints and bools
   directly rather than through the polymorphic comparison. *)
let has_lit id v lits =
  List.exists (fun (i, b) -> i = id && Bool.equal b v) lits

let add_lit lits ((id, v) as lit) =
  if has_lit id (not v) lits then None
  else if has_lit id v lits then Some lits
  else Some (lit :: lits)

let subsumes ~by lits = List.for_all (fun (id, v) -> has_lit id v by) lits

let compatible l1 l2 =
  not (List.exists (fun (id, v) -> has_lit id (not v) l2) l1)

(* A procedure's graph and its cutpoint set by block number, built once
   per procedure and read at every step of every region's exploration. *)
type region_graph = { cfg : Cfg.t; is_cut : bool array }

let region_graph (g : Cfg.t) ~cuts =
  let is_cut = Array.make (Cfg.size g) false in
  List.iter
    (fun l -> Option.iter (fun b -> is_cut.(b) <- true) (Cfg.find g l))
    cuts;
  { cfg = g; is_cut }

(* Enumerate every path of the acyclic region rooted at [start] (a
   cutpoint, whose own block is executed) up to the next cutpoint or
   procedure exit. [Predict] forks without a literal: the front end's
   choice is an oracle the relation must be insensitive to. Successors
   are read from the graph by position: {!Term.successors} lists a
   branch's and a predict's taken target first, a resolve's mispredict
   target first. *)
let explore ctx g ~budget ~state ~start =
  let paths = ref [] and count = ref 0 in
  let current = ref start in
  let emit endpoint lits state =
    incr count;
    if !count > budget then
      raise (Budget { at = Cfg.label g.cfg !current; explored = !count });
    paths := { endpoint; lits; state } :: !paths
  in
  let rec continue b state lits =
    if g.is_cut.(b) then emit (Cut (Cfg.label g.cfg b)) lits state
    else step b state lits
  and step b state lits =
    current := b;
    let block = g.cfg.Cfg.blocks.(b) in
    let succs = g.cfg.Cfg.succs.(b) in
    let state = S.exec_body ctx state block.Block.body in
    let cond src = state.S.regs.(Reg.index src) in
    match block.Block.term with
    | Term.Jump _ -> continue succs.(0) state lits
    | Term.Branch { on; src; _ } -> (
      let taken = succs.(0) and not_taken = succs.(1) in
      let c = cond src in
      match S.truth c with
      | Some b -> continue (if b = on then taken else not_taken) state lits
      | None ->
        Option.iter (continue taken state) (add_lit lits (c.S.id, on));
        Option.iter (continue not_taken state) (add_lit lits (c.S.id, not on)))
    | Term.Predict _ ->
      continue succs.(0) state lits;
      continue succs.(1) state lits
    | Term.Resolve { on; src; predicted_taken; _ } -> (
      let mispredict = succs.(0) and fallthrough = succs.(1) in
      let c = cond src in
      (* fall through iff the original outcome (c<>0)=on equals the
         predicted direction, i.e. (c<>0) = (on = predicted_taken). *)
      let fall = Bool.equal on predicted_taken in
      match S.truth c with
      | Some b ->
        continue (if b = fall then fallthrough else mispredict) state lits
      | None ->
        Option.iter (continue fallthrough state) (add_lit lits (c.S.id, fall));
        Option.iter
          (continue mispredict state)
          (add_lit lits (c.S.id, not fall)))
    | Term.Call { target; return_to } ->
      emit (Called (target, return_to)) lits state
    | Term.Ret -> emit Returned lits state
    | Term.Halt -> emit Halted lits state
  in
  step start state [];
  List.rev !paths

let labels_of proc =
  Lset.of_list (List.map (fun b -> b.Block.label) proc.Proc.blocks)

(* Registers the relation compares at an endpoint. Interior cutpoints
   compare what the *original* needs there; [Halt]/[Ret] compare the
   exit-live convention; call boundaries compare what {!Liveness} models
   a call as reading — the exit-live set (the register calling
   convention) plus whatever is live into the resumption block. This
   mirrors the liveness the transform itself uses to decide renaming, so
   a value the toolchain's contract says the callee may observe is
   always compared, and dead registers (havocked per side) are not. *)
let compared_regs ~live ~scratch ~exit_set = function
  | Cut l -> Regset.diff (Liveness.live_in live l) scratch
  | Halted | Returned -> Regset.diff exit_set scratch
  | Called (_, return_to) ->
    Regset.diff
      (Regset.union exit_set (Liveness.live_in live return_to))
      scratch

let state_diffs ~live ~scratch ~exit_set ~endpoint (s1 : S.state) (s2 : S.state) =
  let regs =
    Regset.fold
      (fun r acc ->
        let v1 = s1.S.regs.(Reg.index r) and v2 = s2.S.regs.(Reg.index r) in
        if v1.S.id = v2.S.id then acc
        else
          Printf.sprintf "%s: %s vs %s" (Reg.to_string r) (S.to_string v1)
            (S.to_string v2)
          :: acc)
      (compared_regs ~live ~scratch ~exit_set endpoint)
      []
  in
  let mem =
    if s1.S.mem.S.mid = s2.S.mem.S.mid then []
    else
      [ Format.asprintf "memory: %a vs %a" S.pp_mem s1.S.mem S.pp_mem
          s2.S.mem ]
  in
  List.rev regs @ mem

let lits_name lits =
  if lits = [] then "unconditional path"
  else
    Printf.sprintf "path under %s"
      (String.concat ", "
         (List.map
            (fun (id, v) -> Printf.sprintf "%st%d" (if v then "" else "!") id)
            (List.rev lits)))

(* ------------------------------------------------- one region, paired -- *)

let check_region ~diags ~proc_name ~live ~scratch ~exit_set ~budget ~g_o
    ~g_t cut =
  let ctx = S.create () in
  (* Havoc: registers the relation assumes equal at region entry get one
     shared symbol; everything else (dead or scratch) gets a per-side
     symbol, so a program whose visible state depends on them is caught
     rather than silently accepted. Memory is shared. *)
  let shared = Regset.diff (Liveness.live_in live cut) scratch in
  let state side = S.init ctx ~at:cut ~side ~shared in
  let start g = Cfg.number g.cfg cut in
  match
    ( explore ctx g_o ~budget ~state:(state "o") ~start:(start g_o),
      explore ctx g_t ~budget ~state:(state "t") ~start:(start g_t) )
  with
  | exception Budget { at; explored } ->
    diags :=
      Diagnostic.error ~block:cut ~pass ~proc:proc_name
        "path budget (%d) exceeded exploring the region at %s: %d paths \
         explored, overflow at branch %s"
        budget cut explored at
      :: !diags;
    0
  | paths_o, paths_t ->
    List.iter
      (fun pt ->
        let matches =
          List.filter (fun po -> subsumes ~by:pt.lits po.lits) paths_o
        in
        if matches = [] then
          diags :=
            Diagnostic.error ~block:cut ~pass ~proc:proc_name
              "%s from %s reaching %s matches no original path"
              (lits_name pt.lits) cut
              (endpoint_name pt.endpoint)
            :: !diags
        else
          List.iter
            (fun po ->
              if not (endpoint_equal po.endpoint pt.endpoint) then
                diags :=
                  Diagnostic.error ~block:cut ~pass ~proc:proc_name
                    "%s from %s: original reaches %s, transformed %s"
                    (lits_name pt.lits) cut
                    (endpoint_name po.endpoint)
                    (endpoint_name pt.endpoint)
                  :: !diags
              else
                List.iter
                  (fun diff ->
                    diags :=
                      Diagnostic.error ~block:cut ~pass ~proc:proc_name
                        "%s from %s, at %s: %s" (lits_name pt.lits) cut
                        (endpoint_name pt.endpoint) diff
                      :: !diags)
                  (state_diffs ~live ~scratch ~exit_set ~endpoint:pt.endpoint
                     po.state pt.state))
            matches)
      paths_t;
    List.length paths_o + List.length paths_t

(* ------------------------------------------------------------ drivers -- *)

let scratch_set scratch = Regset.of_list scratch

let exit_live_set exit_live = Option.map Regset.of_list exit_live

let verify_proc ~diags ~scratch ~exit_live ~budget ~p_o ~p_t =
  let exit_set =
    Option.value exit_live ~default:Regset.all
  in
  let proc_name = p_t.Proc.name in
  if not (Label.equal p_o.Proc.entry p_t.Proc.entry) then
    diags :=
      Diagnostic.error ~pass ~proc:proc_name
        "entry labels differ: %s vs %s" p_o.Proc.entry p_t.Proc.entry
      :: !diags
  else begin
    let common = Lset.inter (labels_of p_o) (labels_of p_t) in
    let cfg_o = Cfg.make p_o and cfg_t = Cfg.make p_t in
    let cuts_o = Cutpoint.compute ~include_joins:true cfg_o in
    let cuts =
      Lset.inter common
        (Lset.of_list (cuts_o @ Cutpoint.compute ~include_joins:false cfg_t))
    in
    let cut_list = Lset.elements cuts in
    if not (Cutpoint.regions_acyclic cfg_o ~cuts:cut_list) then
      diags :=
        Diagnostic.error ~pass ~proc:proc_name
          "original has a cycle avoiding every common cutpoint"
        :: !diags
    else if not (Cutpoint.regions_acyclic cfg_t ~cuts:cut_list) then
      diags :=
        Diagnostic.error ~pass ~proc:proc_name
          "transformed has a cycle avoiding every common cutpoint"
        :: !diags
    else begin
      let live = Liveness.compute ?exit_live cfg_o in
      let g_o = region_graph cfg_o ~cuts:cut_list
      and g_t = region_graph cfg_t ~cuts:cut_list in
      let paths =
        List.fold_left
          (fun acc cut ->
            acc
            + check_region ~diags ~proc_name ~live ~scratch ~exit_set
                ~budget ~g_o ~g_t cut)
          0
          (List.filter (fun l -> Lset.mem l cuts) cuts_o)
      in
      diags :=
        Diagnostic.info ~pass ~proc:proc_name
          "%d cutpoint region(s), %d symbolic paths checked"
          (Lset.cardinal cuts) paths
        :: !diags
    end
  end

let verify ?(scratch = []) ?exit_live ?(max_paths = 4096) ~original
    transformed =
  let diags = ref [] in
  let scratch = scratch_set scratch in
  let exit_live = exit_live_set exit_live in
  List.iter
    (fun p_t ->
      match Program.find_proc original p_t.Proc.name with
      | p_o ->
        verify_proc ~diags ~scratch ~exit_live ~budget:max_paths ~p_o ~p_t
      | exception Not_found ->
        diags :=
          Diagnostic.error ~pass ~proc:p_t.Proc.name
            "procedure has no counterpart in the original program"
          :: !diags)
    transformed.Program.procs;
  List.iter
    (fun p_o ->
      match Program.find_proc transformed p_o.Proc.name with
      | _ -> ()
      | exception Not_found ->
        diags :=
          Diagnostic.error ~pass ~proc:p_o.Proc.name
            "procedure disappeared from the transformed program"
          :: !diags)
    original.Program.procs;
  Diagnostic.sort (List.rev !diags)

(* Self-consistency: within one program, any two region paths whose
   literal sets are compatible (satisfiable together — notably the two
   directions of a predict under equal branch outcomes) must agree. *)
let verify_self ?(scratch = []) ?exit_live ?(max_paths = 4096) program =
  let diags = ref [] in
  let scratch = scratch_set scratch in
  let exit_live = exit_live_set exit_live in
  List.iter
    (fun proc ->
      let proc_name = proc.Proc.name in
      let cfg = Cfg.make proc in
      let cut_list = Cutpoint.compute ~include_joins:true cfg in
      if not (Cutpoint.regions_acyclic cfg ~cuts:cut_list) then
        diags :=
          Diagnostic.error ~pass ~proc:proc_name
            "a cycle avoids every cutpoint"
          :: !diags
      else begin
        let live = Liveness.compute ?exit_live cfg in
        let exit_set =
          Option.value exit_live ~default:Regset.all
        in
        let checked = ref 0 in
        let g = region_graph cfg ~cuts:cut_list in
        List.iter
          (fun cut ->
            let ctx = S.create () in
            let state = S.init ctx ~at:cut ~side:"self" ~shared:Regset.all in
            match
              explore ctx g ~budget:max_paths ~state
                ~start:(Cfg.number cfg cut)
            with
            | exception Budget { at; explored } ->
              diags :=
                Diagnostic.error ~block:cut ~pass ~proc:proc_name
                  "path budget (%d) exceeded exploring the region at %s: %d \
                   paths explored, overflow at branch %s"
                  max_paths cut explored at
                :: !diags
            | paths ->
              let arr = Array.of_list paths in
              for i = 0 to Array.length arr - 1 do
                for j = i + 1 to Array.length arr - 1 do
                  let p1 = arr.(i) and p2 = arr.(j) in
                  if compatible p1.lits p2.lits then begin
                    incr checked;
                    if not (endpoint_equal p1.endpoint p2.endpoint) then
                      diags :=
                        Diagnostic.error ~block:cut ~pass ~proc:proc_name
                          "compatible paths from %s diverge: %s vs %s" cut
                          (endpoint_name p1.endpoint)
                          (endpoint_name p2.endpoint)
                        :: !diags
                    else
                      List.iter
                        (fun diff ->
                          diags :=
                            Diagnostic.error ~block:cut ~pass ~proc:proc_name
                              "compatible paths from %s, at %s: %s" cut
                              (endpoint_name p1.endpoint) diff
                            :: !diags)
                        (state_diffs ~live ~scratch ~exit_set
                           ~endpoint:p1.endpoint p1.state p2.state)
                  end
                done
              done)
          cut_list;
        diags :=
          Diagnostic.info ~pass ~proc:proc_name
            "%d cutpoint region(s), %d compatible path pair(s) checked"
            (List.length cut_list) !checked
          :: !diags
      end)
    program.Program.procs;
  Diagnostic.sort (List.rev !diags)

let check_exn ?scratch ?exit_live ?max_paths ~original transformed =
  let diags = verify ?scratch ?exit_live ?max_paths ~original transformed in
  if Diagnostic.has_errors diags then
    invalid_arg
      (Format.asprintf "Equiv.check_exn:@ %a"
         (Format.pp_print_list Diagnostic.pp)
         (List.filter Diagnostic.is_error diags))
