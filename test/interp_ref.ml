(* The variant-matching interpreter that {!Bv_exec.Interp}'s decoded
   loop replaced, kept verbatim as the reference for the differential
   tests: one [Instr.t] match per instruction, the state in the record
   throughout. It runs an [Interp.state] made by [Interp.init] and
   ignores the state's decoded image. *)

open Bv_isa
open Bv_ir
open Bv_exec.Interp

let never ~pc:_ ~id:_ = false

let[@inline] operand_value regs = function
  | Instr.Reg r -> regs.(Reg.index r)
  | Instr.Imm i -> i

let load_word state ~addr ~speculative =
  if addr land 7 <> 0 || addr < 0 || addr / 8 >= Array.length state.mem then
    if speculative then 0
    else raise (Fault (Printf.sprintf "load from invalid address %d" addr))
  else state.mem.(addr / 8)

let store_word state ~addr v =
  if addr land 7 <> 0 || addr < 0 || addr / 8 >= Array.length state.mem then
    raise (Fault (Printf.sprintf "store to invalid address %d" addr))
  else state.mem.(addr / 8) <- v

let exec hooks predict_policy image state =
  let code = image.Layout.code in
  let pc = state.pc in
  if pc < 0 || pc >= Array.length code then
    raise (Fault (Printf.sprintf "pc %d out of code bounds" pc));
  let regs = state.regs in
  state.instr_count <- state.instr_count + 1;
  let next = pc + 1 in
  match code.(pc) with
  | Instr.Nop -> state.pc <- next
  | Instr.Alu { op; dst; src1; src2 } | Instr.Fpu { op; dst; src1; src2 } ->
    regs.(Reg.index dst) <-
      Instr.eval_alu op regs.(Reg.index src1) (operand_value regs src2);
    state.pc <- next
  | Instr.Mov { dst; src } ->
    regs.(Reg.index dst) <- operand_value regs src;
    state.pc <- next
  | Instr.Load { dst; base; offset; speculative } ->
    state.load_count <- state.load_count + 1;
    regs.(Reg.index dst) <-
      load_word state ~addr:(regs.(Reg.index base) + offset) ~speculative;
    state.pc <- next
  | Instr.Store { src; base; offset } ->
    state.store_count <- state.store_count + 1;
    store_word state ~addr:(regs.(Reg.index base) + offset)
      regs.(Reg.index src);
    state.pc <- next
  | Instr.Cmp { op; dst; src1; src2 } ->
    regs.(Reg.index dst) <-
      Bool.to_int
        (Instr.eval_cmp op regs.(Reg.index src1) (operand_value regs src2));
    state.pc <- next
  | Instr.Cmov { on; cond; dst; src } ->
    if (regs.(Reg.index cond) <> 0) = on then
      regs.(Reg.index dst) <- operand_value regs src;
    state.pc <- next
  | Instr.Branch { on; src; id; target = _ } ->
    let taken = (regs.(Reg.index src) <> 0) = on in
    hooks.on_branch ~id ~pc ~taken;
    state.pc <- (if taken then image.Layout.targets.(pc) else next)
  | Instr.Jump _ -> state.pc <- image.Layout.targets.(pc)
  | Instr.Call _ ->
    Stack.push next state.call_stack;
    state.pc <- image.Layout.targets.(pc)
  | Instr.Ret ->
    if Stack.is_empty state.call_stack then
      raise (Fault "ret with empty call stack");
    state.pc <- Stack.pop state.call_stack
  | Instr.Predict { id; target = _ } ->
    state.pc <-
      (if predict_policy ~pc ~id then image.Layout.targets.(pc) else next)
  | Instr.Resolve { on; src; predicted_taken; id; target = _ } ->
    let taken = (regs.(Reg.index src) <> 0) = on in
    let mispredicted = taken <> predicted_taken in
    hooks.on_resolve ~id ~pc ~mispredicted ~taken;
    state.pc <- (if mispredicted then image.Layout.targets.(pc) else next)
  | Instr.Halt -> state.halted <- true

let step ?(hooks = no_hooks) ?(predict_policy = never) image state =
  if not state.halted then exec hooks predict_policy image state

let run ?(hooks = no_hooks) ?(predict_policy = never)
    ?(max_instrs = 100_000_000) image =
  let state = init image in
  while (not state.halted) && state.instr_count < max_instrs do
    exec hooks predict_policy image state
  done;
  state
