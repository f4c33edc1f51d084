open Bv_isa

module Lset = Set.Make (Label)

(* A procedure with its label index and reverse postorder, built once and
   shared by every pass below. *)
type graph =
  { proc : Proc.t;
    index : Block.t Label.Tbl.t;
    rpo : Label.t list
  }

let graph proc =
  let index = Cfg.block_index proc in
  { proc; index; rpo = Cfg.reverse_postorder_indexed index proc }

let successors g l = Term.successors (Label.Tbl.find g.index l).Block.term

let joins_of g =
  let preds = Cfg.predecessor_map g.proc in
  List.filter
    (fun l ->
      match Label.Tbl.find_opt preds l with
      | Some ps -> List.length (List.sort_uniq Label.compare ps) >= 2
      | None -> false)
    g.rpo

let joins proc = joins_of (graph proc)

let back_edge_targets_of g =
  let dom = Dominators.compute g.proc in
  let targets = ref Lset.empty in
  List.iter
    (fun u ->
      List.iter
        (fun v -> if Dominators.dominates dom v u then targets := Lset.add v !targets)
        (successors g u))
    g.rpo;
  Lset.elements !targets

let back_edge_targets proc = back_edge_targets_of (graph proc)

(* Retreating edges under a DFS from the entry: catches irreducible cycles
   that dominator-based back edges miss. For reducible CFGs this coincides
   with [back_edge_targets]. *)
let retreating_edge_targets g =
  let on_stack = Label.Tbl.create 16 in
  let finished = Label.Tbl.create 16 in
  let targets = ref Lset.empty in
  let rec dfs l =
    if not (Label.Tbl.mem finished l || Label.Tbl.mem on_stack l) then begin
      Label.Tbl.replace on_stack l ();
      List.iter
        (fun s ->
          if Label.Tbl.mem on_stack s then targets := Lset.add s !targets
          else dfs s)
        (successors g l);
      Label.Tbl.remove on_stack l;
      Label.Tbl.replace finished l ()
    end
  in
  dfs g.proc.Proc.entry;
  Lset.elements !targets

let call_returns_of g =
  List.filter_map
    (fun l ->
      match (Label.Tbl.find g.index l).Block.term with
      | Term.Call { return_to; _ } -> Some return_to
      | _ -> None)
    g.rpo

let call_returns proc = call_returns_of (graph proc)

let compute ?(include_joins = true) proc =
  let g = graph proc in
  let cuts =
    Lset.of_list
      ((proc.Proc.entry :: back_edge_targets_of g)
      @ retreating_edge_targets g @ call_returns_of g
      @ if include_joins then joins_of g else [])
  in
  List.filter (fun l -> Lset.mem l cuts) g.rpo

let regions_acyclic proc ~cuts =
  let g = graph proc in
  let is_cut = Label.Tbl.create 16 in
  List.iter (fun l -> Label.Tbl.replace is_cut l ()) cuts;
  (* DFS over the subgraph of non-cut reachable blocks; a retreating edge
     inside it is a cycle avoiding every cutpoint. *)
  let on_stack = Label.Tbl.create 16 in
  let finished = Label.Tbl.create 16 in
  let ok = ref true in
  let rec dfs l =
    if not (Label.Tbl.mem finished l || Label.Tbl.mem on_stack l) then begin
      Label.Tbl.replace on_stack l ();
      List.iter
        (fun s ->
          if not (Label.Tbl.mem is_cut s) then
            if Label.Tbl.mem on_stack s then ok := false else dfs s)
        (successors g l);
      Label.Tbl.remove on_stack l;
      Label.Tbl.replace finished l ()
    end
  in
  List.iter (fun l -> if not (Label.Tbl.mem is_cut l) then dfs l) g.rpo;
  !ok
