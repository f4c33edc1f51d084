open Bv_isa
module Sset = Set.Make (String)

type t =
  { entry : Label.t;
    doms : Sset.t Label.Tbl.t  (* reachable block -> dominators *)
  }

let compute proc =
  let rpo = Cfg.reverse_postorder proc in
  let reachable = Sset.of_list rpo in
  let preds_all = Cfg.predecessor_map proc in
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
