open Bv_isa
module Lset = Set.Make (Label)

type t =
  { back_edges : (Label.t * Label.t) list;
    bodies : Lset.t Label.Tbl.t  (* header -> natural loop *)
  }

let compute proc =
  let dom = Dominators.compute proc in
  let preds = Cfg.predecessor_map proc in
  let back_edges =
    List.concat_map
      (fun block ->
        List.filter_map
          (fun succ ->
            if Dominators.dominates dom succ block.Block.label then
              Some (block.Block.label, succ)
            else None)
          (Cfg.successors proc block))
      proc.Proc.blocks
  in
  let bodies = Label.Tbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let body =
        match Label.Tbl.find_opt bodies header with
        | Some b -> ref b
        | None -> ref (Lset.singleton header)
      in
      (* Walk predecessors back from the latch; the header bounds the
         region because it dominates every block of the loop. *)
      let rec absorb lab =
        if not (Lset.mem lab !body) then begin
          body := Lset.add lab !body;
          List.iter absorb
            (Option.value (Label.Tbl.find_opt preds lab) ~default:[])
        end
      in
      absorb latch;
      Label.Tbl.replace bodies header !body)
    back_edges;
  { back_edges; bodies }

let back_edges t = t.back_edges

let headers t =
  List.sort Label.compare
    (Label.Tbl.fold (fun h _ acc -> h :: acc) t.bodies [])

let body t header =
  match Label.Tbl.find_opt t.bodies header with
  | Some b -> Lset.elements b
  | None -> []

let in_loop t ~header lab =
  match Label.Tbl.find_opt t.bodies header with
  | Some b -> Lset.mem lab b
  | None -> false

let containing t lab =
  Label.Tbl.fold
    (fun h b acc -> if Lset.mem lab b then (h, Lset.cardinal b) :: acc else acc)
    t.bodies []

let innermost t lab =
  match
    List.sort
      (fun (h1, n1) (h2, n2) ->
        match Int.compare n1 n2 with 0 -> Label.compare h1 h2 | c -> c)
      (containing t lab)
  with
  | (h, _) :: _ -> Some h
  | [] -> None

let depth t lab = List.length (containing t lab)
