type alu_op = Add | Sub | And | Or | Xor | Shl | Shr | Mul

type cmp_op = Eq | Ne | Lt | Ge | Le | Gt

type operand =
  | Reg of Reg.t
  | Imm of int

type t =
  | Nop
  | Alu of { op : alu_op; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Fpu of { op : alu_op; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Mov of { dst : Reg.t; src : operand }
  | Load of { dst : Reg.t; base : Reg.t; offset : int; speculative : bool }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Cmp of { op : cmp_op; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Cmov of { on : bool; cond : Reg.t; dst : Reg.t; src : operand }
  | Branch of { on : bool; src : Reg.t; target : Label.t; id : int }
  | Jump of Label.t
  | Call of Label.t
  | Ret
  | Predict of { target : Label.t; id : int }
  | Resolve of
      { on : bool;
        src : Reg.t;
        target : Label.t;
        predicted_taken : bool;
        id : int }
  | Halt

type fu_class = Fu_int | Fu_fp | Fu_mem | Fu_branch | Fu_none

let fu_class = function
  | Nop | Predict _ -> Fu_none
  | Alu _ | Mov _ | Cmp _ | Cmov _ -> Fu_int
  | Fpu _ -> Fu_fp
  | Load _ | Store _ -> Fu_mem
  | Branch _ | Jump _ | Call _ | Ret | Resolve _ | Halt -> Fu_branch

let operand_uses = function
  | Reg r -> [ r ]
  | Imm _ -> []

let defs = function
  | Alu { dst; _ } | Fpu { dst; _ } | Mov { dst; _ } | Cmp { dst; _ }
  | Cmov { dst; _ } ->
    [ dst ]
  | Load { dst; _ } -> [ dst ]
  | Nop | Store _ | Branch _ | Jump _ | Call _ | Ret | Predict _ | Resolve _
  | Halt ->
    []

let uses = function
  | Alu { src1; src2; _ } | Fpu { src1; src2; _ } | Cmp { src1; src2; _ } ->
    src1 :: operand_uses src2
  | Mov { src; _ } -> operand_uses src
  | Cmov { cond; dst; src; _ } ->
    (* the old dst value survives a false condition, so dst is a source *)
    cond :: dst :: operand_uses src
  | Load { base; _ } -> [ base ]
  | Store { src; base; _ } -> [ src; base ]
  | Branch { src; _ } | Resolve { src; _ } -> [ src ]
  | Nop | Jump _ | Call _ | Ret | Predict _ | Halt -> []

let is_terminator = function
  | Branch _ | Jump _ | Call _ | Ret | Predict _ | Resolve _ | Halt -> true
  | Nop | Alu _ | Fpu _ | Mov _ | Load _ | Store _ | Cmp _ | Cmov _ -> false

let is_control = is_terminator

let branch_target = function
  | Branch { target; _ }
  | Jump target
  | Call target
  | Predict { target; _ }
  | Resolve { target; _ } ->
    Some target
  | Nop | Alu _ | Fpu _ | Mov _ | Load _ | Store _ | Cmp _ | Cmov _ | Ret
  | Halt ->
    None

let encoded_bytes _ = 4

let pp_alu_op ppf op =
  let s =
    match op with
    | Add -> "add"
    | Sub -> "sub"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Shl -> "shl"
    | Shr -> "shr"
    | Mul -> "mul"
  in
  Format.pp_print_string ppf s

let pp_cmp_op ppf op =
  let s =
    match op with
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Ge -> "ge"
    | Le -> "le"
    | Gt -> "gt"
  in
  Format.pp_print_string ppf s

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Format.fprintf ppf "#%d" i

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Alu { op; dst; src1; src2 } ->
    Format.fprintf ppf "%a %a, %a, %a" pp_alu_op op Reg.pp dst Reg.pp src1
      pp_operand src2
  | Fpu { op; dst; src1; src2 } ->
    Format.fprintf ppf "f%a %a, %a, %a" pp_alu_op op Reg.pp dst Reg.pp src1
      pp_operand src2
  | Mov { dst; src } ->
    Format.fprintf ppf "mov %a, %a" Reg.pp dst pp_operand src
  | Load { dst; base; offset; speculative } ->
    Format.fprintf ppf "ld%s %a, [%a + %d]"
      (if speculative then "+" else "")
      Reg.pp dst Reg.pp base offset
  | Store { src; base; offset } ->
    Format.fprintf ppf "st %a, [%a + %d]" Reg.pp src Reg.pp base offset
  | Cmp { op; dst; src1; src2 } ->
    Format.fprintf ppf "cmp.%a %a, %a, %a" pp_cmp_op op Reg.pp dst Reg.pp src1
      pp_operand src2
  | Cmov { on; cond; dst; src } ->
    Format.fprintf ppf "cmov.%s %a, %a, %a"
      (if on then "nz" else "z")
      Reg.pp cond Reg.pp dst pp_operand src
  | Branch { on; src; target; id } ->
    Format.fprintf ppf "b%s %a, %a  ; site %d"
      (if on then "nz" else "z")
      Reg.pp src Label.pp target id
  | Jump target -> Format.fprintf ppf "jmp %a" Label.pp target
  | Call target -> Format.fprintf ppf "call %a" Label.pp target
  | Ret -> Format.pp_print_string ppf "ret"
  | Predict { target; id } ->
    Format.fprintf ppf "predict %a  ; site %d" Label.pp target id
  | Resolve { on; src; target; predicted_taken; id } ->
    Format.fprintf ppf "resolve.%s%s %a, %a  ; site %d"
      (if on then "nz" else "z")
      (if predicted_taken then ".pt" else ".pnt")
      Reg.pp src Label.pp target id
  | Halt -> Format.pp_print_string ppf "halt"

let to_string i = Format.asprintf "%a" pp i

(* Operands are annotated [int] and shift counts clamped with an int
   compare: otherwise the compares below are the polymorphic ones, a C
   call per evaluation on the fetch path. *)
let[@inline] shift_count b =
  let s = b land 63 in
  if s > 62 then 62 else s

let eval_alu op (a : int) (b : int) =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl shift_count b
  | Shr -> a asr shift_count b
  | Mul -> a * b

let eval_cmp op (a : int) (b : int) =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Le -> a <= b
  | Gt -> a > b
