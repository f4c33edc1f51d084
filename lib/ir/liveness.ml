open Bv_isa
module Regset = Regset

type t =
  { live_in : Regset.t Label.Tbl.t;
    live_out : Regset.t Label.Tbl.t
  }

let all_regs = Regset.all

let term_uses term =
  match term with
  | Term.Branch { src; _ } | Term.Resolve { src; _ } -> Regset.singleton src
  | Term.Jump _ | Term.Predict _ | Term.Call _ | Term.Ret | Term.Halt ->
    Regset.empty

let block_use_def block =
  let use = ref Regset.empty in
  let def = ref Regset.empty in
  List.iter
    (fun i ->
      List.iter
        (fun r -> if not (Regset.mem r !def) then use := Regset.add r !use)
        (Instr.uses i);
      List.iter (fun r -> def := Regset.add r !def) (Instr.defs i))
    block.Block.body;
  Regset.iter
    (fun r -> if not (Regset.mem r !def) then use := Regset.add r !use)
    (term_uses block.Block.term);
  (!use, !def)

let compute ?(exit_live = all_regs) proc =
  let blocks = proc.Proc.blocks in
  let use_def = Label.Tbl.create 64 in
  List.iter
    (fun b -> Label.Tbl.replace use_def b.Block.label (block_use_def b))
    blocks;
  let live_in = Label.Tbl.create 64 in
  let live_out = Label.Tbl.create 64 in
  List.iter
    (fun b ->
      Label.Tbl.replace live_in b.Block.label Regset.empty;
      Label.Tbl.replace live_out b.Block.label Regset.empty)
    blocks;
  let lookup_in l =
    Option.value (Label.Tbl.find_opt live_in l) ~default:Regset.empty
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse order converges faster for mostly-forward CFGs *)
    List.iter
      (fun b ->
        let l = b.Block.label in
        let out =
          match b.Block.term with
          | Term.Ret | Term.Halt -> exit_live
          | Term.Call _ ->
            (* conservative: the callee may read anything, and control
               returns to the successor *)
            Regset.union exit_live
              (List.fold_left
                 (fun acc s -> Regset.union acc (lookup_in s))
                 Regset.empty
                 (Term.successors b.Block.term))
          | _ ->
            List.fold_left
              (fun acc s -> Regset.union acc (lookup_in s))
              Regset.empty
              (Term.successors b.Block.term)
        in
        let use, def = Label.Tbl.find use_def l in
        let inn = Regset.union use (Regset.diff out def) in
        if not (Regset.equal inn (lookup_in l)) then begin
          Label.Tbl.replace live_in l inn;
          changed := true
        end;
        Label.Tbl.replace live_out l out)
      (List.rev blocks)
  done;
  { live_in; live_out }

let live_in t l =
  Option.value (Label.Tbl.find_opt t.live_in l) ~default:all_regs

let live_out t l =
  Option.value (Label.Tbl.find_opt t.live_out l) ~default:all_regs
