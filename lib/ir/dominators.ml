open Bv_isa

(* [idom.(b)] is the immediate dominator of block [b], the entry's is
   itself, and [-1] marks a block unreachable from the entry. *)
type t =
  { cfg : Cfg.t;
    idom : int array
  }

(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm"
   (2001): iterate over the reverse postorder, setting each block's idom
   to the nearest common ancestor, in the idom tree built so far, of its
   processed predecessors. Fingers climb towards lower reverse-postorder
   numbers, which every idom chain ends in at the entry. *)
let compute (g : Cfg.t) =
  let idom = Array.make (Cfg.size g) (-1) in
  let rpo = g.Cfg.rpo and number = g.Cfg.rpo_number in
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while number.(!a) > number.(!b) do a := idom.(!a) done;
      while number.(!b) > number.(!a) do b := idom.(!b) done
    done;
    !a
  in
  if Array.length rpo > 0 then begin
    idom.(rpo.(0)) <- rpo.(0);
    let changed = ref true in
    while !changed do
      changed := false;
      for k = 1 to Array.length rpo - 1 do
        let b = rpo.(k) in
        let preds = g.Cfg.preds.(b) in
        let chosen = ref (-1) in
        for j = 0 to Array.length preds - 1 do
          let p = preds.(j) in
          if idom.(p) >= 0 then
            chosen := if !chosen < 0 then p else intersect p !chosen
        done;
        if !chosen <> idom.(b) then begin
          idom.(b) <- !chosen;
          changed := true
        end
      done
    done
  end;
  { cfg = g; idom }

let dominates_at t a b =
  if a = b then true
  else if t.idom.(a) < 0 || t.idom.(b) < 0 then false
  else begin
    let x = ref b in
    while !x <> a && t.idom.(!x) <> !x do
      x := t.idom.(!x)
    done;
    !x = a
  end

let dominates t a b =
  Label.equal a b
  ||
  match (Cfg.find t.cfg a, Cfg.find t.cfg b) with
  | Some a, Some b -> dominates_at t a b
  | _ -> false

let idom t b =
  match Cfg.find t.cfg b with
  | Some i when t.idom.(i) >= 0 && t.idom.(i) <> i ->
    Some (Cfg.label t.cfg t.idom.(i))
  | _ -> None

let dominator_tree t =
  let g = t.cfg in
  let children = Array.make (Cfg.size g) [] in
  Array.iter
    (fun b ->
      let d = t.idom.(b) in
      if d <> b then children.(d) <- Cfg.label g b :: children.(d))
    g.Cfg.rpo;
  List.sort
    (fun (a, _) (b, _) -> Label.compare a b)
    (Array.to_list
       (Array.map
          (fun b -> (Cfg.label g b, List.sort Label.compare children.(b)))
          g.Cfg.rpo))
