open Bv_isa

type t =
  { proc : Proc.t;
    blocks : Block.t array;
    succs : int array array;
    preds : int array array;
    rpo : int array;
    rpo_number : int array;
    index : int Label.Tbl.t
  }

let make proc =
  let blocks = Array.of_list proc.Proc.blocks in
  let n = Array.length blocks in
  (* Filled from the last block, so the first block of each label wins,
     as in [Proc.find_block]. *)
  let index = Label.Tbl.create (max 16 (2 * n)) in
  for i = n - 1 downto 0 do
    Label.Tbl.replace index blocks.(i).Block.label i
  done;
  let number ~from l =
    match Label.Tbl.find_opt index l with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Cfg.make: block %s targets unknown label %s"
           from.Block.label l)
  in
  let succs =
    Array.map
      (fun b ->
        Array.of_list
          (List.map (number ~from:b) (Term.successors b.Block.term)))
      blocks
  in
  (* One entry per edge, the latest block in layout order first. *)
  let fill = Array.make n 0 in
  Array.iter (Array.iter (fun s -> fill.(s) <- fill.(s) + 1)) succs;
  let preds = Array.map (fun k -> Array.make k 0) fill in
  Array.iteri
    (fun b ss ->
      Array.iter
        (fun s ->
          fill.(s) <- fill.(s) - 1;
          preds.(s).(fill.(s)) <- b)
        ss)
    succs;
  let visited = Array.make n false in
  let post = Array.make n 0 in
  let finished = ref 0 in
  let rec visit i =
    if not visited.(i) then begin
      visited.(i) <- true;
      Array.iter visit succs.(i);
      post.(!finished) <- i;
      incr finished
    end
  in
  (match Label.Tbl.find_opt index proc.Proc.entry with
  | Some e -> visit e
  | None -> ());
  let reached = !finished in
  let rpo = Array.init reached (fun k -> post.(reached - 1 - k)) in
  let rpo_number = Array.make n (-1) in
  Array.iteri (fun k i -> rpo_number.(i) <- k) rpo;
  { proc; blocks; succs; preds; rpo; rpo_number; index }

let size g = Array.length g.blocks
let label g i = g.blocks.(i).Block.label
let find g l = Label.Tbl.find_opt g.index l
let number g l = Label.Tbl.find g.index l
let reachable g i = g.rpo_number.(i) >= 0

let is_forward_branch g i =
  match g.blocks.(i).Block.term with
  | Term.Branch _ -> g.succs.(i).(0) > i
  | Term.Jump _ | Term.Predict _ | Term.Resolve _ | Term.Call _ | Term.Ret
  | Term.Halt ->
    false
