open Bv_isa
open Bv_ir

exception Fault of string

(* [init] decodes the image once into [ops]: four ints per instruction,
   the one at [pc] from [ops.(4 * pc)]:

     opcode  a  b  c

   The opcode folds in everything the loop would otherwise match on
   again: the ALU or compare operation, whether the last source is a
   register or an immediate, a branch's or a cmov's sense, and a
   resolve's predicted direction. [a], [b] and [c] are register indices,
   immediates, offsets or site ids as the opcode says, and a control
   instruction's [c] is its target pc, resolved at layout. *)
type decoded =
  { image : Layout.image;
    ops : int array
  }

type state =
  { regs : int array;
    mem : int array;
    mutable pc : int;
    mutable halted : bool;
    mutable instr_count : int;
    mutable load_count : int;
    mutable store_count : int;
    call_stack : int Stack.t;
    decoded : decoded
  }

(* Opcodes, with their operands. [cmov], [alu] and [cmp] are the first
   of a run: [cmov + 2 * on + imm], [alu + 2 * op + imm] and
   [cmp + 2 * op + imm], with [imm] 1 when the last source is an
   immediate and [op] the operation's position in [Instr.alu_op] or
   [Instr.cmp_op]. *)
let nop = 0
let halt = 1
let mov = 2 (* + imm; dst, src *)
let load = 4 (* + speculative; dst, base, offset *)
let store = 6 (* src, base, offset *)
let jump = 7 (* -, -, target *)
let call = 8 (* -, -, target *)
let ret = 9
let predict = 10 (* -, id, target *)
let branch = 11 (* + on; src, id, target *)
let resolve = 13 (* + 2 * on + predicted_taken; src, id, target *)
let cmov = 17 (* dst, cond, src *)
let alu = 21 (* dst, src1, src2 *)
let cmp = 37 (* dst, src1, src2 *)

let alu_index : Instr.alu_op -> int = function
  | Add -> 0
  | Sub -> 1
  | And -> 2
  | Or -> 3
  | Xor -> 4
  | Shl -> 5
  | Shr -> 6
  | Mul -> 7

let cmp_index : Instr.cmp_op -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Ge -> 3
  | Le -> 4
  | Gt -> 5

let source = function
  | Instr.Reg r -> (0, Reg.index r)
  | Instr.Imm i -> (1, i)

let decode image =
  let code = image.Layout.code in
  let ops = Array.make (4 * Array.length code) 0 in
  Array.iteri
    (fun pc instr ->
      let r = Reg.index in
      let target = image.Layout.targets.(pc) in
      let opcode, a, b, c =
        match (instr : Instr.t) with
        | Nop -> (nop, 0, 0, 0)
        | Halt -> (halt, 0, 0, 0)
        | Mov { dst; src } ->
          let imm, v = source src in
          (mov + imm, r dst, v, 0)
        | Load { dst; base; offset; speculative } ->
          (load + Bool.to_int speculative, r dst, r base, offset)
        | Store { src; base; offset } -> (store, r src, r base, offset)
        | Jump _ -> (jump, 0, 0, target)
        | Call _ -> (call, 0, 0, target)
        | Ret -> (ret, 0, 0, 0)
        | Predict { id; _ } -> (predict, 0, id, target)
        | Branch { on; src; id; _ } ->
          (branch + Bool.to_int on, r src, id, target)
        | Resolve { on; src; predicted_taken; id; _ } ->
          ( resolve + (2 * Bool.to_int on) + Bool.to_int predicted_taken,
            r src,
            id,
            target )
        | Cmov { on; cond; dst; src } ->
          let imm, v = source src in
          (cmov + (2 * Bool.to_int on) + imm, r dst, r cond, v)
        | Alu { op; dst; src1; src2 } | Fpu { op; dst; src1; src2 } ->
          let imm, v = source src2 in
          (alu + (2 * alu_index op) + imm, r dst, r src1, v)
        | Cmp { op; dst; src1; src2 } ->
          let imm, v = source src2 in
          (cmp + (2 * cmp_index op) + imm, r dst, r src1, v)
      in
      ops.(4 * pc) <- opcode;
      ops.((4 * pc) + 1) <- a;
      ops.((4 * pc) + 2) <- b;
      ops.((4 * pc) + 3) <- c)
    code;
  { image; ops }

let init image =
  { regs = Array.make Reg.count 0;
    mem = Program.initial_memory image.Layout.program;
    pc = image.Layout.entry;
    halted = false;
    instr_count = 0;
    load_count = 0;
    store_count = 0;
    call_stack = Stack.create ();
    decoded = decode image
  }

type hooks =
  { on_branch : id:int -> pc:int -> taken:bool -> unit;
    on_resolve : id:int -> pc:int -> mispredicted:bool -> taken:bool -> unit
  }

let no_hooks =
  { on_branch = (fun ~id:_ ~pc:_ ~taken:_ -> ());
    on_resolve = (fun ~id:_ ~pc:_ ~mispredicted:_ ~taken:_ -> ())
  }

let never ~pc:_ ~id:_ = false

let[@inline] valid_word mem addr =
  addr land 7 = 0 && addr >= 0 && addr / 8 < Array.length mem

(* The semantics of the instruction set: run [state] until it halts or
   its instruction count reaches [limit]. [step] is this loop with a
   limit of one more instruction, [run] with [max_instrs]. The pc and
   the count live in locals. They are written back to [state] before
   anything outside the loop can see it (a hook, the predict policy, a
   fault, the return), so every observer sees the state that executing
   one instruction at a time gives. Nothing here allocates except a
   [Call]'s return-stack push. *)
let exec hooks predict_policy state limit =
  let ops = state.decoded.ops in
  let size = Array.length ops / 4 in
  let regs = state.regs and mem = state.mem in
  let pc = ref state.pc and count = ref state.instr_count in
  let halted = ref state.halted in
  while (not !halted) && !count < limit do
    let p = !pc in
    if p < 0 || p >= size then begin
      state.pc <- p;
      state.instr_count <- !count;
      raise (Fault (Printf.sprintf "pc %d out of code bounds" p))
    end;
    count := !count + 1;
    let k = 4 * p in
    let a = ops.(k + 1) and b = ops.(k + 2) and c = ops.(k + 3) in
    let next = p + 1 in
    pc :=
      match ops.(k) with
      | 0 (* nop *) -> next
      | 1 (* halt *) ->
        halted := true;
        state.halted <- true;
        p
      | 2 (* mov r *) ->
        regs.(a) <- regs.(b);
        next
      | 3 (* mov i *) ->
        regs.(a) <- b;
        next
      | 4 | 5 (* load, load.s *) ->
        state.load_count <- state.load_count + 1;
        let addr = regs.(b) + c in
        regs.(a) <-
          (if valid_word mem addr then mem.(addr / 8)
           else if ops.(k) = 5 then 0
           else begin
             state.pc <- p;
             state.instr_count <- !count;
             raise
               (Fault (Printf.sprintf "load from invalid address %d" addr))
           end);
        next
      | 6 (* store *) ->
        state.store_count <- state.store_count + 1;
        let addr = regs.(b) + c in
        if not (valid_word mem addr) then begin
          state.pc <- p;
          state.instr_count <- !count;
          raise (Fault (Printf.sprintf "store to invalid address %d" addr))
        end;
        mem.(addr / 8) <- regs.(a);
        next
      | 7 (* jump *) -> c
      | 8 (* call *) ->
        Stack.push next state.call_stack;
        c
      | 9 (* ret *) ->
        if Stack.is_empty state.call_stack then begin
          state.pc <- p;
          state.instr_count <- !count;
          raise (Fault "ret with empty call stack")
        end;
        Stack.pop state.call_stack
      | 10 (* predict *) ->
        state.pc <- p;
        state.instr_count <- !count;
        if predict_policy ~pc:p ~id:b then c else next
      | 11 | 12 (* branch.z, branch.nz *) ->
        let taken = (regs.(a) <> 0) = (ops.(k) = 12) in
        state.pc <- p;
        state.instr_count <- !count;
        hooks.on_branch ~id:b ~pc:p ~taken;
        if taken then c else next
      | 13 | 14 | 15 | 16 (* resolve.{z,nz}.{pnt,pt} *) ->
        let o = ops.(k) - resolve in
        let taken = (regs.(a) <> 0) = (o >= 2) in
        let mispredicted = taken <> (o land 1 = 1) in
        state.pc <- p;
        state.instr_count <- !count;
        hooks.on_resolve ~id:b ~pc:p ~mispredicted ~taken;
        if mispredicted then c else next
      | 17 (* cmov.z r *) ->
        if regs.(b) = 0 then regs.(a) <- regs.(c);
        next
      | 18 (* cmov.z i *) ->
        if regs.(b) = 0 then regs.(a) <- c;
        next
      | 19 (* cmov.nz r *) ->
        if regs.(b) <> 0 then regs.(a) <- regs.(c);
        next
      | 20 (* cmov.nz i *) ->
        if regs.(b) <> 0 then regs.(a) <- c;
        next
      | 21 (* add r *) ->
        regs.(a) <- regs.(b) + regs.(c);
        next
      | 22 (* add i *) ->
        regs.(a) <- regs.(b) + c;
        next
      | 23 (* sub r *) ->
        regs.(a) <- regs.(b) - regs.(c);
        next
      | 24 (* sub i *) ->
        regs.(a) <- regs.(b) - c;
        next
      | 25 (* and r *) ->
        regs.(a) <- regs.(b) land regs.(c);
        next
      | 26 (* and i *) ->
        regs.(a) <- regs.(b) land c;
        next
      | 27 (* or r *) ->
        regs.(a) <- regs.(b) lor regs.(c);
        next
      | 28 (* or i *) ->
        regs.(a) <- regs.(b) lor c;
        next
      | 29 (* xor r *) ->
        regs.(a) <- regs.(b) lxor regs.(c);
        next
      | 30 (* xor i *) ->
        regs.(a) <- regs.(b) lxor c;
        next
      | 31 (* shl r *) ->
        regs.(a) <- Instr.eval_alu Instr.Shl regs.(b) regs.(c);
        next
      | 32 (* shl i *) ->
        regs.(a) <- Instr.eval_alu Instr.Shl regs.(b) c;
        next
      | 33 (* shr r *) ->
        regs.(a) <- Instr.eval_alu Instr.Shr regs.(b) regs.(c);
        next
      | 34 (* shr i *) ->
        regs.(a) <- Instr.eval_alu Instr.Shr regs.(b) c;
        next
      | 35 (* mul r *) ->
        regs.(a) <- regs.(b) * regs.(c);
        next
      | 36 (* mul i *) ->
        regs.(a) <- regs.(b) * c;
        next
      | 37 (* eq r *) ->
        regs.(a) <- Bool.to_int (regs.(b) = regs.(c));
        next
      | 38 (* eq i *) ->
        regs.(a) <- Bool.to_int (regs.(b) = c);
        next
      | 39 (* ne r *) ->
        regs.(a) <- Bool.to_int (regs.(b) <> regs.(c));
        next
      | 40 (* ne i *) ->
        regs.(a) <- Bool.to_int (regs.(b) <> c);
        next
      | 41 (* lt r *) ->
        regs.(a) <- Bool.to_int (regs.(b) < regs.(c));
        next
      | 42 (* lt i *) ->
        regs.(a) <- Bool.to_int (regs.(b) < c);
        next
      | 43 (* ge r *) ->
        regs.(a) <- Bool.to_int (regs.(b) >= regs.(c));
        next
      | 44 (* ge i *) ->
        regs.(a) <- Bool.to_int (regs.(b) >= c);
        next
      | 45 (* le r *) ->
        regs.(a) <- Bool.to_int (regs.(b) <= regs.(c));
        next
      | 46 (* le i *) ->
        regs.(a) <- Bool.to_int (regs.(b) <= c);
        next
      | 47 (* gt r *) ->
        regs.(a) <- Bool.to_int (regs.(b) > regs.(c));
        next
      | 48 (* gt i *) ->
        regs.(a) <- Bool.to_int (regs.(b) > c);
        next
      | op -> invalid_arg (Printf.sprintf "Interp: opcode %d" op)
  done;
  state.pc <- !pc;
  state.instr_count <- !count

let step ?(hooks = no_hooks) ?(predict_policy = never) image state =
  if image != state.decoded.image then
    invalid_arg "Interp.step: the state was made from another image";
  if not state.halted then
    exec hooks predict_policy state (state.instr_count + 1)

let run ?(hooks = no_hooks) ?(predict_policy = never)
    ?(max_instrs = 100_000_000) image =
  let state = init image in
  exec hooks predict_policy state max_instrs;
  state

let fnv_fold acc v =
  let acc = (acc lxor v) * 0x100000001B3 in
  acc land max_int

let mem_digest state = Array.fold_left fnv_fold 0xcbf29ce4 state.mem
let reg_digest state = Array.fold_left fnv_fold 0xcbf29ce4 state.regs

let arch_digest state = fnv_fold (mem_digest state) state.store_count
