open Bv_isa
module Regset = Regset

type t =
  { cfg : Cfg.t;
    live_in : Regset.t array;
    live_out : Regset.t array
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

let compute ?(exit_live = all_regs) (g : Cfg.t) =
  let n = Cfg.size g in
  let use_def = Array.map block_use_def g.Cfg.blocks in
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse layout order converges faster for mostly-forward CFGs *)
    for i = n - 1 downto 0 do
      let succs = g.Cfg.succs.(i) in
      let out = ref Regset.empty in
      for k = 0 to Array.length succs - 1 do
        out := Regset.union !out live_in.(succs.(k))
      done;
      let out =
        match g.Cfg.blocks.(i).Block.term with
        | Term.Ret | Term.Halt -> exit_live
        | Term.Call _ ->
          (* conservative: the callee may read anything, and control
             returns to the successor *)
          Regset.union exit_live !out
        | _ -> !out
      in
      let use, def = use_def.(i) in
      let inn = Regset.union use (Regset.diff out def) in
      if not (Regset.equal inn live_in.(i)) then begin
        live_in.(i) <- inn;
        changed := true
      end;
      live_out.(i) <- out
    done
  done;
  { cfg = g; live_in; live_out }

let live_in t l =
  match Cfg.find t.cfg l with Some i -> t.live_in.(i) | None -> all_regs

let live_out t l =
  match Cfg.find t.cfg l with Some i -> t.live_out.(i) | None -> all_regs
