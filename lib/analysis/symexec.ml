open Bv_isa

type expr = { id : int; node : node }

and node =
  | Const of int
  | Symbol of string
  | Entry of { reg : Reg.t; side : string option; at : string }
  | Alu of Instr.alu_op * expr * expr
  | Cmp of Instr.cmp_op * expr * expr
  | Ite of expr * expr * expr
  | Select of mem * expr

and mem = { mid : int; mnode : mnode }

and mnode =
  | Memsym of string
  | Store of mem * expr * expr

(* Structural keys over child ids: children are already interned, so the
   key identifies the node up to congruence. An entry symbol's key is an
   int: [Reg.index r] for the register shared by every side,
   [k * Reg.count + Reg.index r] for side number [k >= 1]. *)
type ekey =
  | Kconst of int
  | Ksymbol of string
  | Kentry of int
  | Kalu of Instr.alu_op * int * int
  | Kcmp of Instr.cmp_op * int * int
  | Kite of int * int * int
  | Kselect of int * int

type mkey = Kmemsym of string | Kstore of int * int * int

(* Hashing for the monomorphic tables: FNV-style mixing of the key's ints,
   with the high bits folded down because a table indexes by the low
   ones. *)
let mix h x = (h lxor x) * 0x100000001b3
let finish h = h lxor (h lsr 29)

let alu_code = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.And -> 2
  | Instr.Or -> 3
  | Instr.Xor -> 4
  | Instr.Shl -> 5
  | Instr.Shr -> 6
  | Instr.Mul -> 7

let cmp_code = function
  | Instr.Eq -> 0
  | Instr.Ne -> 1
  | Instr.Lt -> 2
  | Instr.Ge -> 3
  | Instr.Le -> 4
  | Instr.Gt -> 5

module Etab = Hashtbl.Make (struct
  type t = ekey

  let equal a b =
    match (a, b) with
    | Kconst x, Kconst y | Kentry x, Kentry y -> x = y
    | Ksymbol x, Ksymbol y -> String.equal x y
    | Kalu (o, x, y), Kalu (o', x', y') -> o == o' && x = x' && y = y'
    | Kcmp (o, x, y), Kcmp (o', x', y') -> o == o' && x = x' && y = y'
    | Kite (c, x, y), Kite (c', x', y') -> c = c' && x = x' && y = y'
    | Kselect (m, x), Kselect (m', x') -> m = m' && x = x'
    | ( ( Kconst _ | Ksymbol _ | Kentry _ | Kalu _ | Kcmp _ | Kite _
        | Kselect _ ),
        _ ) ->
      false

  let hash = function
    | Kconst n -> finish (mix 1 n)
    | Ksymbol s -> Hashtbl.hash s
    | Kentry k -> finish (mix 2 k)
    | Kalu (o, x, y) -> finish (mix (mix (mix 3 (alu_code o)) x) y)
    | Kcmp (o, x, y) -> finish (mix (mix (mix 4 (cmp_code o)) x) y)
    | Kite (c, x, y) -> finish (mix (mix (mix 5 c) x) y)
    | Kselect (m, x) -> finish (mix (mix 6 m) x)
end)

module Mtab = Hashtbl.Make (struct
  type t = mkey

  let equal a b =
    match (a, b) with
    | Kmemsym x, Kmemsym y -> String.equal x y
    | Kstore (m, x, y), Kstore (m', x', y') -> m = m' && x = x' && y = y'
    | (Kmemsym _ | Kstore _), _ -> false

  let hash = function
    | Kmemsym s -> Hashtbl.hash s
    | Kstore (m, x, y) -> finish (mix (mix (mix 7 m) x) y)
end)

(* Term ids are dense, so the id itself is a perfect hash. *)
module Itab = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

type ctx =
  { etab : expr Etab.t;
    mtab : mem Mtab.t;
    rtab : (int * int) option Itab.t;  (* memoized ranges *)
    mutable sides : string list;  (* per-side symbol owners, numbered from 1 *)
    mutable next_e : int;
    mutable next_m : int
  }

let create () =
  { etab = Etab.create 256;
    mtab = Mtab.create 64;
    rtab = Itab.create 256;
    sides = [];
    next_e = 0;
    next_m = 0
  }

let intern ctx key node =
  match Etab.find_opt ctx.etab key with
  | Some e -> e
  | None ->
    let e = { id = ctx.next_e; node } in
    ctx.next_e <- ctx.next_e + 1;
    Etab.add ctx.etab key e;
    e

let mintern ctx key mnode =
  match Mtab.find_opt ctx.mtab key with
  | Some m -> m
  | None ->
    let m = { mid = ctx.next_m; mnode } in
    ctx.next_m <- ctx.next_m + 1;
    Mtab.add ctx.mtab key m;
    m

let const ctx n = intern ctx (Kconst n) (Const n)
let symbol ctx s = intern ctx (Ksymbol s) (Symbol s)
let memsym ctx s = mintern ctx (Kmemsym s) (Memsym s)

let commutative = function
  | Instr.Add | Instr.And | Instr.Or | Instr.Xor | Instr.Mul -> true
  | Instr.Sub | Instr.Shl | Instr.Shr -> false

(* Every identity below is exact under [Instr.eval_alu]'s plain-OCaml-int
   semantics (shifts clamp the count, but a count of 0 is untouched);
   anything less certain is left to constant folding only. *)
let alu ctx op a b =
  match (a.node, b.node) with
  | Const x, Const y -> const ctx (Instr.eval_alu op x y)
  | _ -> (
    let interned () =
      let a, b = if commutative op && a.id > b.id then (b, a) else (a, b) in
      intern ctx (Kalu (op, a.id, b.id)) (Alu (op, a, b))
    in
    match (op, a.node, b.node) with
    | Instr.Add, Const 0, _ -> b
    | Instr.Add, _, Const 0 -> a
    | Instr.Sub, _, Const 0 -> a
    | Instr.Sub, _, _ when a.id = b.id -> const ctx 0
    | Instr.Xor, Const 0, _ -> b
    | Instr.Xor, _, Const 0 -> a
    | Instr.Xor, _, _ when a.id = b.id -> const ctx 0
    | Instr.Or, Const 0, _ -> b
    | Instr.Or, _, Const 0 -> a
    | Instr.Or, _, _ when a.id = b.id -> a
    | Instr.And, Const 0, _ | Instr.And, _, Const 0 -> const ctx 0
    | Instr.And, _, _ when a.id = b.id -> a
    | Instr.Mul, Const 1, _ -> b
    | Instr.Mul, _, Const 1 -> a
    | Instr.Mul, Const 0, _ | Instr.Mul, _, Const 0 -> const ctx 0
    | (Instr.Shl | Instr.Shr), _, Const 0 -> a
    | _ -> interned ())

let bool_const ctx b = const ctx (if b then 1 else 0)

let cmp ctx op a b =
  match (a.node, b.node) with
  | Const x, Const y -> bool_const ctx (Instr.eval_cmp op x y)
  | _ when a.id = b.id ->
    bool_const ctx
      (match op with
      | Instr.Eq | Instr.Le | Instr.Ge -> true
      | Instr.Ne | Instr.Lt | Instr.Gt -> false)
  | _ ->
    let a, b =
      match op with
      | (Instr.Eq | Instr.Ne) when a.id > b.id -> (b, a)
      | _ -> (a, b)
    in
    intern ctx (Kcmp (op, a.id, b.id)) (Cmp (op, a, b))

let truth e =
  match e.node with Const n -> Some (n <> 0) | _ -> None

let ite ctx c t e =
  match truth c with
  | Some true -> t
  | Some false -> e
  | None ->
    if t.id = e.id then t else intern ctx (Kite (c.id, t.id, e.id)) (Ite (c, t, e))

let rec base_offset ctx e =
  match e.node with
  | Const k -> (const ctx 0, k)
  | Alu (Instr.Add, a, { node = Const k; _ }) ->
    let b, o = base_offset ctx a in
    (b, o + k)
  | Alu (Instr.Add, { node = Const k; _ }, a) ->
    let b, o = base_offset ctx a in
    (b, o + k)
  | Alu (Instr.Sub, a, { node = Const k; _ }) ->
    let b, o = base_offset ctx a in
    (b, o - k)
  | _ -> (e, 0)

(* Conservative value intervals, computed structurally and memoized:
   [Some (lo, hi)] means every concrete evaluation of the term lies in
   [lo, hi]. Every rule is exact under [Instr.eval_alu]'s plain-int
   semantics; any arithmetic that could wrap yields [None] instead of an
   unsound bound. The payoff is masked indexing: [(x & m) + base] gets a
   finite window no matter what [x] is, which proves data-window loads
   disjoint from out-of-window bookkeeping stores. *)
let add_bound a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then None
  else if a < 0 && b < 0 && s >= 0 then None
  else Some s

let sub_bound a b = if b = min_int then None else add_bound a (-b)

let rec range ctx e =
  match Itab.find_opt ctx.rtab e.id with
  | Some r -> r
  | None ->
    let r = compute_range ctx e in
    Itab.replace ctx.rtab e.id r;
    r

and compute_range ctx e =
  match e.node with
  | Const k -> Some (k, k)
  | Symbol _ | Entry _ | Select _ -> None
  | Cmp _ -> Some (0, 1)
  | Ite (_, t, el) -> (
    match (range ctx t, range ctx el) with
    | Some (lt, ht), Some (le, he) -> Some (min lt le, max ht he)
    | _ -> None)
  | Alu (op, a, b) -> alu_range ctx op a b

and alu_range ctx op a b =
  let ra = range ctx a and rb = range ctx b in
  let pair l h = match (l, h) with Some l, Some h -> Some (l, h) | _ -> None in
  match (op, ra, rb) with
  | Instr.Add, Some (l1, h1), Some (l2, h2) ->
    pair (add_bound l1 l2) (add_bound h1 h2)
  | Instr.Sub, Some (l1, h1), Some (l2, h2) ->
    pair (sub_bound l1 h2) (sub_bound h1 l2)
  | Instr.And, _, _ -> (
    (* x land y has only the bits of a non-negative operand: bounded by
       it regardless of the other side *)
    match (ra, rb) with
    | Some (l1, h1), Some (l2, h2) when l1 >= 0 && l2 >= 0 ->
      Some (0, min h1 h2)
    | _, Some (l2, h2) when l2 >= 0 -> Some (0, h2)
    | Some (l1, h1), _ when l1 >= 0 -> Some (0, h1)
    | _ -> None)
  | Instr.Or, Some (l1, h1), Some (l2, h2) when l1 >= 0 && l2 >= 0 ->
    (* for non-negatives, x lor y = x + y - (x land y) <= x + y *)
    pair (Some (max l1 l2)) (add_bound h1 h2)
  | Instr.Xor, Some (l1, h1), Some (l2, h2) when l1 >= 0 && l2 >= 0 ->
    pair (Some 0) (add_bound h1 h2)
  | Instr.Shl, Some (l1, h1), Some (s, s') when s = s' && l1 >= 0 ->
    let c = min 62 (s land 63) in
    if h1 <= max_int asr c then Some (l1 lsl c, h1 lsl c) else None
  | Instr.Shr, Some (l1, h1), Some (s, s') when s = s' ->
    (* asr is monotone in the shifted value for either sign *)
    let c = min 62 (s land 63) in
    Some (l1 asr c, h1 asr c)
  | Instr.Mul, Some (l1, h1), Some (l2, h2) when l1 >= 0 && l2 >= 0 ->
    if h2 = 0 || h1 <= max_int / h2 then Some (l1 * l2, h1 * h2) else None
  | _ -> None

(* Anchored interval: the term's value is [root + d] for some [d] in the
   interval, where [root] is the value of the anchor term ([None] means
   absolute). Mirrors the Entry/Abs split of the alias pass so the prover
   accepts exactly the load/store reorderings that pass licenses: an
   address like [(r10 + (x & m)) + 32] anchors to the symbol [r10] with a
   finite displacement window even though its absolute range is unknown. *)
let iadd (l1, h1) (l2, h2) =
  match (add_bound l1 l2, add_bound h1 h2) with
  | Some l, Some h -> Some (l, h)
  | _ -> None

let rec anchored ctx e =
  match range ctx e with
  | Some i -> (None, i)
  | None -> (
    let self = (Some e.id, (0, 0)) in
    let part p i =
      let root, ip = anchored ctx p in
      match iadd ip i with Some j -> (root, j) | None -> self
    in
    match e.node with
    | Alu (Instr.Add, a, b) -> (
      match (range ctx a, range ctx b) with
      | _, Some ib -> part a ib
      | Some ia, None -> part b ia
      | None, None -> self)
    | Alu (Instr.Sub, a, b) -> (
      match range ctx b with
      | Some (lb, hb) when lb <> min_int && hb <> min_int ->
        part a (-hb, -lb)
      | _ -> self)
    | _ -> self)

(* 8-byte accesses at displacements drawn from the two intervals. The
   wrap-free difference guard makes the verdict hold for addresses that
   share a wrapped anchor: the two concrete addresses then differ by
   exactly a value of [i1 - i2], which the test keeps at least a word
   away from zero. *)
let intervals_disjoint (l1, h1) (l2, h2) =
  match (sub_bound h1 l2, sub_bound h2 l1) with
  | Some d12, Some d21 -> d12 <= -8 || d21 <= -8
  | _ -> false

let surely_disjoint ctx a b =
  let r1, i1 = anchored ctx a and r2, i2 = anchored ctx b in
  r1 = r2 && intervals_disjoint i1 i2

(* Canonical store-log order for provably-disjoint addresses. Only
   same-anchor stores ever commute, and their displacement windows are
   disjoint, so the window orders them — and does so identically on both
   sides of an equivalence check (term ids would not: they depend on
   interning order). *)
let addr_key ctx a =
  let _, i = anchored ctx a in
  i

let rec select ctx m a =
  match m.mnode with
  | Store (m', a', v) ->
    if a'.id = a.id then v
    else if surely_disjoint ctx a a' then select ctx m' a
    else mselect ctx m a
  | Memsym _ -> mselect ctx m a

and mselect ctx m a = intern ctx (Kselect (m.mid, a.id)) (Select (m, a))

(* Insertion-sort a new store into the log: collapse onto a shadowed
   same-address store, sink below provably-disjoint stores with a larger
   (base, offset) key, stop at the first may-aliasing store. Two logs that
   differ only by legal reorderings normalize to the same term. *)
let rec store ctx m a v =
  match m.mnode with
  | Store (m', a', _) when a'.id = a.id -> mstore ctx m' a v
  | Store (m', a', v')
    when surely_disjoint ctx a a' && addr_key ctx a < addr_key ctx a' ->
    mstore ctx (store ctx m' a v) a' v'
  | _ -> mstore ctx m a v

and mstore ctx m a v = mintern ctx (Kstore (m.mid, a.id, v.id)) (Store (m, a, v))

(* ------------------------------------------------------------- states -- *)

type state = { regs : expr array; mem : mem }

(* The number of [side] among the context's per-side symbol owners,
   allocated on first use. *)
let side_number ctx side =
  let rec find k = function
    | [] ->
      ctx.sides <- ctx.sides @ [ side ];
      k
    | s :: rest -> if String.equal s side then k else find (k + 1) rest
  in
  find 1 ctx.sides

let init ctx ~at ~side ~shared =
  let base = Reg.count * side_number ctx side in
  let own = Some side in
  let entry i =
    let reg = Reg.make i in
    if Regset.mem reg shared then
      intern ctx (Kentry i) (Entry { reg; side = None; at })
    else intern ctx (Kentry (base + i)) (Entry { reg; side = own; at })
  in
  { regs = Array.init Reg.count entry; mem = memsym ctx ("mem@" ^ at) }

let operand ctx regs = function
  | Instr.Reg r -> regs.(Reg.index r)
  | Instr.Imm k -> const ctx k

let addr ctx regs ~base ~offset =
  alu ctx Instr.Add regs.(Reg.index base) (const ctx offset)

(* One instruction over a register file the caller owns: writes [regs] in
   place and returns the memory. *)
let step ctx regs mem instr =
  let get r = regs.(Reg.index r) in
  let set r v = regs.(Reg.index r) <- v in
  match instr with
  | Instr.Nop -> mem
  | Instr.Alu { op; dst; src1; src2 } | Instr.Fpu { op; dst; src1; src2 } ->
    set dst (alu ctx op (get src1) (operand ctx regs src2));
    mem
  | Instr.Mov { dst; src } ->
    set dst (operand ctx regs src);
    mem
  | Instr.Load { dst; base; offset; speculative = _ } ->
    set dst (select ctx mem (addr ctx regs ~base ~offset));
    mem
  | Instr.Store { src; base; offset } ->
    store ctx mem (addr ctx regs ~base ~offset) (get src)
  | Instr.Cmp { op; dst; src1; src2 } ->
    set dst (cmp ctx op (get src1) (operand ctx regs src2));
    mem
  | Instr.Cmov { on; cond; dst; src } ->
    let c = get cond in
    let v = operand ctx regs src and old = get dst in
    let t, e = if on then (v, old) else (old, v) in
    set dst (ite ctx c t e);
    mem
  | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
  | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
    invalid_arg "Symexec.exec_instr: control-flow instruction in a block body"

(* The register file is copied once per body, not once per instruction:
   the copy is private to this call, so the steps may write it. *)
let exec_body ctx st body =
  match body with
  | [] -> st
  | _ ->
    let regs = Array.copy st.regs in
    let mem = List.fold_left (step ctx regs) st.mem body in
    { regs; mem }

let exec_instr ctx st instr = exec_body ctx st [ instr ]

(* ----------------------------------------------------------- printing -- *)

let alu_sym = function
  | Instr.Add -> "+"
  | Instr.Sub -> "-"
  | Instr.And -> "&"
  | Instr.Or -> "|"
  | Instr.Xor -> "^"
  | Instr.Shl -> "<<"
  | Instr.Shr -> ">>"
  | Instr.Mul -> "*"

let cmp_sym = function
  | Instr.Eq -> "=="
  | Instr.Ne -> "!="
  | Instr.Lt -> "<"
  | Instr.Ge -> ">="
  | Instr.Le -> "<="
  | Instr.Gt -> ">"

let rec pp ppf e =
  match e.node with
  | Const n -> Format.pp_print_int ppf n
  | Symbol s -> Format.pp_print_string ppf s
  | Entry { reg; side = None; at } -> Format.fprintf ppf "%a@@%s" Reg.pp reg at
  | Entry { reg; side = Some side; at } ->
    Format.fprintf ppf "%s!%a@@%s" side Reg.pp reg at
  | Alu (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (alu_sym op) pp b
  | Cmp (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_sym op) pp b
  | Ite (c, t, e) -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp t pp e
  | Select (m, a) -> Format.fprintf ppf "%a[%a]" pp_mem m pp a

and pp_mem ppf m =
  match m.mnode with
  | Memsym s -> Format.pp_print_string ppf s
  | Store (m', a, v) ->
    Format.fprintf ppf "%a{%a:=%a}" pp_mem m' pp a pp v

let to_string e = Format.asprintf "%a" pp e
