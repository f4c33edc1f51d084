(** Symbolic evaluation of straight-line hidden-ISA code.

    Registers evaluate to hash-consed expression terms; memory is a
    symbolic store log (select/store terms). Hash-consing doubles as
    value numbering: two registers holding structurally equal symbolic
    values share one term, so equality is a pointer/id comparison — the
    congruence closure the translation-validation pass ({!Equiv}) needs.

    Normalization applied by the smart constructors:
    - constant folding through the reference semantics
      ([Instr.eval_alu]/[Instr.eval_cmp]) — never through re-derived
      algebra, so folding cannot disagree with the interpreter;
    - exact algebraic identities of OCaml-int arithmetic
      (x+0, x−0, x−x, x⊕x, x⊕0, x∨0, x∧0, x·1, x·0, shifts by 0);
    - commutative operands ordered by term id;
    - [Ite] with a constant or decidable condition, or equal arms,
      collapses;
    - [select] over a store to the same address yields the stored value;
      over a {e provably disjoint} store it looks through;
    - adjacent provably-disjoint stores are commuted into a canonical
      order and same-address stores collapse, so legal load/store
      reorderings (e.g. by the alias-aware scheduler) normalize to one
      memory term.

    Disjointness is structural: each address decomposes into an anchor
    term plus a displacement interval ({!range} bounds the interval;
    masked indexing is the decisive rule), and two accesses are disjoint
    when their anchors coincide — or both are absolute — and the 8-byte
    displacement windows cannot overlap. Fault behaviour is not
    modelled — terms denote values of fault-free executions.

    Terms are interned in tables private to a {!ctx}; ids are only
    comparable within one context. The tables are monomorphic and keyed
    by child ids; a register's entry symbol ({!init}) is keyed by an int,
    and its name is rendered only when a term is printed. *)

open Bv_isa

type ctx
(** An interning context (hash-cons tables + id counters). *)

val create : unit -> ctx

type expr = private { id : int; node : node }

and node =
  | Const of int
  | Symbol of string
  | Entry of { reg : Reg.t; side : string option; at : string }
      (** [reg]'s value on entry to the region at [at], from {!init}:
          shared by every side when [side = None] (printed [r3@at]),
          private to one side otherwise (printed [side!r3@at]) *)
  | Alu of Instr.alu_op * expr * expr
  | Cmp of Instr.cmp_op * expr * expr
  | Ite of expr * expr * expr  (** [Ite (c, t, e)]: [t] if [c <> 0] *)
  | Select of mem * expr  (** word read at a symbolic address *)

and mem = private { mid : int; mnode : mnode }

and mnode =
  | Memsym of string
  | Store of mem * expr * expr  (** [Store (m, addr, value)] *)

val const : ctx -> int -> expr
val symbol : ctx -> string -> expr
val alu : ctx -> Instr.alu_op -> expr -> expr -> expr
val cmp : ctx -> Instr.cmp_op -> expr -> expr -> expr
val ite : ctx -> expr -> expr -> expr -> expr
val select : ctx -> mem -> expr -> expr
val memsym : ctx -> string -> mem
val store : ctx -> mem -> expr -> expr -> mem

val base_offset : ctx -> expr -> expr * int
(** Split an address term into (base, constant displacement), peeling
    [Alu (Add/Sub, _, Const _)] layers. A constant address reports the
    interned zero of its context as base. *)

val range : ctx -> expr -> (int * int) option
(** Conservative interval of the term's concrete values, when one can be
    established structurally (constants, compares, masked/shifted/added
    non-negatives, hulls of ite arms). Arithmetic that could wrap yields
    [None], never an unsound bound. Memoized per context. *)

val surely_disjoint : ctx -> expr -> expr -> bool
(** The two 8-byte accesses cannot overlap: the addresses decompose to
    the same anchor term (or both to absolute values) with displacement
    intervals a word apart. [false] is "may alias". *)

(** {1 Machine state} *)

type state = { regs : expr array;  (** indexed by [Reg.index] *) mem : mem }

val init : ctx -> at:string -> side:string -> shared:Regset.t -> state
(** Fully symbolic entry state of the region at [at]. A register in
    [shared] holds the one entry symbol every side's [init] in this
    context gets for it; any other register holds a symbol private to
    [side]. Memory holds [Memsym ("mem@" ^ at)]. The 64 register symbols
    are interned in register order on every call, so term ids depend only
    on the sequence of [init] calls, never on names. *)

val exec_instr : ctx -> state -> Instr.t -> state
(** Straight-line step. Control-flow instructions (which never appear in
    {!Bv_ir.Block} bodies) raise [Invalid_argument]. Speculative and
    normal loads evaluate alike (fault-free semantics). *)

val exec_body : ctx -> state -> Instr.t list -> state
(** [exec_instr] over a body, copying the register file once. *)

val truth : expr -> bool option
(** [Some b] if the term decides [e <> 0] on its own: a constant, or a
    comparison known reflexively. *)

val pp : Format.formatter -> expr -> unit
val pp_mem : Format.formatter -> mem -> unit
val to_string : expr -> string
