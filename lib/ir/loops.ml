open Bv_isa

(* One natural loop: its header's block number, membership over the
   graph's blocks and its size. *)
type loop =
  { header : int;
    members : bool array;
    mutable size : int
  }

type t =
  { cfg : Cfg.t;
    back_edges : (Label.t * Label.t) list;
    loops : loop list  (* in order of first back edge *)
  }

let compute (g : Cfg.t) =
  let dom = Dominators.compute g in
  let n = Cfg.size g in
  let back_edges = ref [] in
  for latch = 0 to n - 1 do
    Array.iter
      (fun header ->
        if Dominators.dominates_at dom header latch then
          back_edges := (latch, header) :: !back_edges)
      g.Cfg.succs.(latch)
  done;
  let back_edges = List.rev !back_edges in
  let loops = ref [] in
  List.iter
    (fun (latch, header) ->
      let loop =
        match List.find_opt (fun l -> l.header = header) !loops with
        | Some l -> l
        | None ->
          let members = Array.make n false in
          members.(header) <- true;
          let l = { header; members; size = 1 } in
          loops := l :: !loops;
          l
      in
      (* Walk predecessors back from the latch; the header bounds the
         region because it dominates every block of the loop. *)
      let rec absorb b =
        if not loop.members.(b) then begin
          loop.members.(b) <- true;
          loop.size <- loop.size + 1;
          Array.iter absorb g.Cfg.preds.(b)
        end
      in
      absorb latch)
    back_edges;
  { cfg = g;
    back_edges =
      List.map (fun (l, h) -> (Cfg.label g l, Cfg.label g h)) back_edges;
    loops = List.rev !loops
  }

let back_edges t = t.back_edges

let headers t =
  List.sort Label.compare (List.map (fun l -> Cfg.label t.cfg l.header) t.loops)

let loop_of t header =
  match Cfg.find t.cfg header with
  | Some h -> List.find_opt (fun l -> l.header = h) t.loops
  | None -> None

let body t header =
  match loop_of t header with
  | Some l ->
    let labels = ref [] in
    Array.iteri
      (fun b m -> if m then labels := Cfg.label t.cfg b :: !labels)
      l.members;
    List.sort Label.compare !labels
  | None -> []

let in_loop t ~header lab =
  match (loop_of t header, Cfg.find t.cfg lab) with
  | Some l, Some b -> l.members.(b)
  | _ -> false

let containing t lab =
  match Cfg.find t.cfg lab with
  | Some b -> List.filter (fun l -> l.members.(b)) t.loops
  | None -> []

let innermost t lab =
  match
    List.sort
      (fun l1 l2 ->
        match Int.compare l1.size l2.size with
        | 0 -> Label.compare (Cfg.label t.cfg l1.header) (Cfg.label t.cfg l2.header)
        | c -> c)
      (containing t lab)
  with
  | l :: _ -> Some (Cfg.label t.cfg l.header)
  | [] -> None

let depth t lab = List.length (containing t lab)
