open Bv_isa

let successors _proc block = Term.successors block.Block.term

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

let block_position proc =
  let pos = Label.Tbl.create 64 in
  List.iteri
    (fun i b -> Label.Tbl.replace pos b.Block.label i)
    proc.Proc.blocks;
  pos

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

let is_forward_branch ~position block =
  match block.Block.term with
  | Term.Branch { taken; _ } ->
    (match
       ( Label.Tbl.find_opt position block.Block.label,
         Label.Tbl.find_opt position taken )
     with
    | Some here, Some there -> there > here
    | _ -> false)
  | Term.Jump _ | Term.Predict _ | Term.Resolve _ | Term.Call _ | Term.Ret
  | Term.Halt ->
    false
