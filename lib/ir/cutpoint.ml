(* Blocks are numbers of one {!Cfg.t}; the dominators are computed once
   per call and every set below is a [bool array] over the blocks. *)

(* Retreating edges under a DFS from the entry: catches irreducible cycles
   that dominator-based back edges miss. For reducible CFGs this coincides
   with the back-edge targets. *)
let mark_retreating_targets (g : Cfg.t) cut =
  let n = Cfg.size g in
  let on_stack = Array.make n false in
  let finished = Array.make n false in
  let rec dfs l =
    if not (finished.(l) || on_stack.(l)) then begin
      on_stack.(l) <- true;
      Array.iter
        (fun s -> if on_stack.(s) then cut.(s) <- true else dfs s)
        g.Cfg.succs.(l);
      on_stack.(l) <- false;
      finished.(l) <- true
    end
  in
  if Array.length g.Cfg.rpo > 0 then dfs g.Cfg.rpo.(0)

let compute ?(include_joins = true) (g : Cfg.t) =
  let cut = Array.make (Cfg.size g) false in
  let dom = Dominators.compute g in
  if Array.length g.Cfg.rpo > 0 then cut.(g.Cfg.rpo.(0)) <- true;
  mark_retreating_targets g cut;
  Array.iter
    (fun u ->
      (* back-edge targets *)
      Array.iter
        (fun v -> if Dominators.dominates_at dom v u then cut.(v) <- true)
        g.Cfg.succs.(u);
      (match g.Cfg.blocks.(u).Block.term with
      | Term.Call _ -> cut.(g.Cfg.succs.(u).(0)) <- true
      | _ -> ());
      if include_joins then begin
        let preds = g.Cfg.preds.(u) in
        if Array.exists (fun p -> p <> preds.(0)) preds then cut.(u) <- true
      end)
    g.Cfg.rpo;
  List.filter_map
    (fun l -> if cut.(l) then Some (Cfg.label g l) else None)
    (Array.to_list g.Cfg.rpo)

let regions_acyclic (g : Cfg.t) ~cuts =
  let n = Cfg.size g in
  let is_cut = Array.make n false in
  List.iter
    (fun l -> Option.iter (fun i -> is_cut.(i) <- true) (Cfg.find g l))
    cuts;
  (* DFS over the subgraph of non-cut reachable blocks; a retreating edge
     inside it is a cycle avoiding every cutpoint. *)
  let on_stack = Array.make n false in
  let finished = Array.make n false in
  let ok = ref true in
  let rec dfs l =
    if not (finished.(l) || on_stack.(l)) then begin
      on_stack.(l) <- true;
      Array.iter
        (fun s ->
          if not is_cut.(s) then if on_stack.(s) then ok := false else dfs s)
        g.Cfg.succs.(l);
      on_stack.(l) <- false;
      finished.(l) <- true
    end
  in
  Array.iter (fun l -> if not is_cut.(l) then dfs l) g.Cfg.rpo;
  !ok
