open Bv_isa
open Bv_ir

(* Abstract register value: a byte interval, absolute or relative to a
   register's value at procedure entry. Intervals come from constants
   and interval-exact operations (masked indexing above all: [x & m]
   lands in [0, m] whatever [x] is); joins keep only values that agree
   exactly and send everything else to Top, so chains are finite and the
   forward solve terminates without widening — a loop-varying index is
   Top at the join but its masked form recovers a window in-block, which
   is where the scheduler queries it. *)
type absval =
  | Abs of (int * int)  (* value within [lo, hi] *)
  | Entry of int * (int * int)  (* entry-reg index + displacement interval *)
  | Top

let num k = Abs (k, k)

(* Wrap-guarded interval arithmetic (mirrors {!Symexec.range}: every
   bound is exact under [Instr.eval_alu], never widened past a wrap). *)
let add_bound a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then None
  else if a < 0 && b < 0 && s >= 0 then None
  else Some s

let sub_bound a b = if b = min_int then None else add_bound a (-b)

let iadd (l1, h1) (l2, h2) =
  match (add_bound l1 l2, add_bound h1 h2) with
  | Some l, Some h -> Some (l, h)
  | _ -> None

let isub (l1, h1) (l2, h2) =
  match (sub_bound l1 h2, sub_bound h1 l2) with
  | Some l, Some h -> Some (l, h)
  | _ -> None

let of_interval = function Some i -> Abs i | None -> Top

let entry_of r = function Some i -> Entry (r, i) | None -> Top

let alu_av op a b =
  match (op, a, b) with
  | _, Abs (x, x'), Abs (y, y') when x = x' && y = y' ->
    num (Instr.eval_alu op x y)
  | Instr.Add, Abs i1, Abs i2 -> of_interval (iadd i1 i2)
  | Instr.Add, Entry (r, i1), Abs i2 | Instr.Add, Abs i2, Entry (r, i1) ->
    entry_of r (iadd i1 i2)
  | Instr.Sub, Abs i1, Abs i2 -> of_interval (isub i1 i2)
  | Instr.Sub, Entry (r, i1), Abs i2 -> entry_of r (isub i1 i2)
  | Instr.Sub, Entry (r1, i1), Entry (r2, i2) when r1 = r2 ->
    of_interval (isub i1 i2)
  | Instr.And, Abs (l1, h1), Abs (l2, h2) when l1 >= 0 && l2 >= 0 ->
    Abs (0, min h1 h2)
  | Instr.And, _, Abs (l2, h2) when l2 >= 0 ->
    (* x land y has only the bits of the non-negative operand *)
    Abs (0, h2)
  | Instr.And, Abs (l1, h1), _ when l1 >= 0 -> Abs (0, h1)
  | Instr.Or, Abs (l1, h1), Abs (l2, h2) when l1 >= 0 && l2 >= 0 -> (
    match add_bound h1 h2 with
    | Some h -> Abs (max l1 l2, h)
    | None -> Top)
  | Instr.Xor, Abs (l1, h1), Abs (l2, h2) when l1 >= 0 && l2 >= 0 -> (
    match add_bound h1 h2 with Some h -> Abs (0, h) | None -> Top)
  | Instr.Shl, Abs (l1, h1), Abs (s, s') when s = s' && l1 >= 0 ->
    let c = min 62 (s land 63) in
    if h1 <= max_int asr c then Abs (l1 lsl c, h1 lsl c) else Top
  | Instr.Shr, Abs (l1, h1), Abs (s, s') when s = s' ->
    let c = min 62 (s land 63) in
    Abs (l1 asr c, h1 asr c)
  | Instr.Mul, Abs (l1, h1), Abs (l2, h2) when l1 >= 0 && l2 >= 0 ->
    if h2 = 0 || h1 <= max_int / h2 then Abs (l1 * l2, h1 * h2) else Top
  | _ -> Top

let equal_av a b =
  match (a, b) with
  | Abs (l, h), Abs (l', h') -> l = l' && h = h'
  | Entry (r, (l, h)), Entry (r', (l', h')) -> r = r' && l = l' && h = h'
  | Top, Top -> true
  | (Abs _ | Entry _ | Top), _ -> false

let join_av a b = if equal_av a b then a else Top

module L = struct
  type t = absval array

  let equal a b =
    let n = Array.length a in
    let rec from i = i >= n || (equal_av a.(i) b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let join a b = Array.init Reg.count (fun i -> join_av a.(i) b.(i))
end

module Solver = Dataflow.Make (L)

let avop regs = function
  | Instr.Reg r -> regs.(Reg.index r)
  | Instr.Imm k -> num k

(* In-place step over a scratch copy of the fact. *)
let step regs instr =
  let set r v = regs.(Reg.index r) <- v in
  match instr with
  | Instr.Nop | Instr.Store _ -> ()
  | Instr.Alu { op; dst; src1; src2 } | Instr.Fpu { op; dst; src1; src2 } ->
    set dst (alu_av op regs.(Reg.index src1) (avop regs src2))
  | Instr.Mov { dst; src } -> set dst (avop regs src)
  | Instr.Load { dst; _ } -> set dst Top
  | Instr.Cmp { op; dst; src1; src2 } ->
    set dst
      (match (regs.(Reg.index src1), avop regs src2) with
      | Abs (x, x'), Abs (y, y') when x = x' && y = y' ->
        num (if Instr.eval_cmp op x y then 1 else 0)
      | _ -> Abs (0, 1))
  | Instr.Cmov { dst; src; _ } ->
    set dst (join_av regs.(Reg.index dst) (avop regs src))
  | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
  | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
    List.iter (fun r -> set r Top) (Instr.defs instr)

(* Call havoc: with no interprocedural knowledge every register goes to
   Top; an interprocedural summary ([call_mod]) narrows that to the
   callee's transitive register mod set — registers are global across
   calls (no save/restore convention), so a callee can only disturb what
   it writes. An unknown callee ([call_mod] returning [None]) keeps the
   worst case. *)
let transfer ?call_mod block fact =
  let regs = Array.copy fact in
  List.iter (step regs) block.Block.body;
  (match block.Block.term with
  | Term.Call { target; _ } -> (
    match Option.bind call_mod (fun f -> f target) with
    | Some mods -> List.iter (fun r -> regs.(Reg.index r) <- Top) mods
    | None -> Array.fill regs 0 Reg.count Top)
  | _ -> ());
  regs

type address =
  | Absolute of int * int
  | Reg_relative of Reg.t * int * int
  | Unknown

let equal_address a b =
  match (a, b) with
  | Absolute (l, h), Absolute (l', h') -> l = l' && h = h'
  | Reg_relative (r, l, h), Reg_relative (r', l', h') ->
    Reg.equal r r' && l = l' && h = h'
  | Unknown, Unknown -> true
  | (Absolute _ | Reg_relative _ | Unknown), _ -> false

module Phys = Hashtbl.Make (struct
  type t = Instr.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = address Phys.t

let address_at regs ~base ~offset =
  match regs.(Reg.index base) with
  | Abs i -> (
    match iadd i (offset, offset) with
    | Some (l, h) -> Absolute (l, h)
    | None -> Unknown)
  | Entry (r, i) -> (
    match iadd i (offset, offset) with
    | Some (l, h) -> Reg_relative (Reg.make r, l, h)
    | None -> Unknown)
  | Top -> Unknown

type facts = absval array

type solution = Solver.solution

let solve ?call_mod g =
  let boundary = Array.init Reg.count (fun i -> Entry (i, (0, 0))) in
  Solver.solve ~direction:Dataflow.Forward ~boundary
    ~transfer:(transfer ?call_mod) g

let entry_facts solution b = Option.map Array.copy (Solver.fact_in_at solution b)

let step_instr = step

let rebase addr regs =
  match addr with
  | Absolute _ | Unknown -> addr
  | Reg_relative (r, l, h) -> (
    match regs.(Reg.index r) with
    | Abs i -> (
      match iadd i (l, h) with Some (l, h) -> Absolute (l, h) | None -> Unknown)
    | Entry (r', i) -> (
      match iadd i (l, h) with
      | Some (l, h) -> Reg_relative (Reg.make r', l, h)
      | None -> Unknown)
    | Top -> Unknown)

let analyze ?call_mod (g : Cfg.t) =
  let solution = solve ?call_mod g in
  let table = Phys.create 64 in
  let record instr addr =
    (* A condition slice is physically shared between the two resolution
       blocks; join duplicated occurrences conservatively. *)
    match Phys.find_opt table instr with
    | None -> Phys.replace table instr addr
    | Some prior ->
      if not (equal_address prior addr) then Phys.replace table instr Unknown
  in
  Array.iteri
    (fun b block ->
      let regs =
        match Solver.fact_in_at solution b with
        | Some fact -> Array.copy fact
        | None -> Array.make Reg.count Top
      in
      List.iter
        (fun instr ->
          (match instr with
          | Instr.Load { base; offset; _ } | Instr.Store { base; offset; _ } ->
            record instr (address_at regs ~base ~offset)
          | _ -> ());
          step regs instr)
        block.Block.body)
    g.Cfg.blocks;
  table

let address_of t instr =
  match Phys.find_opt t instr with Some a -> a | None -> Unknown

(* 8-byte accesses at addresses drawn from the two intervals *)
let disjoint_words (l1, h1) (l2, h2) =
  (h1 <= max_int - 8 && h1 + 8 <= l2) || (h2 <= max_int - 8 && h2 + 8 <= l1)

let may_alias t i1 i2 =
  i1 == i2
  ||
  match (address_of t i1, address_of t i2) with
  | Absolute (l1, h1), Absolute (l2, h2) ->
    not (disjoint_words (l1, h1) (l2, h2))
  | Reg_relative (r1, l1, h1), Reg_relative (r2, l2, h2) ->
    not (Reg.equal r1 r2 && disjoint_words (l1, h1) (l2, h2))
  | Unknown, _ | _, Unknown | Absolute _, Reg_relative _
  | Reg_relative _, Absolute _ ->
    true
