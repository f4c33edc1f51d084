(** Architectural reference interpreter for laid-out programs.

    Decomposed branches make the {e prediction} direction architecturally
    irrelevant: whatever direction a [predict] takes, the [resolve] on that
    path redirects control if the prediction disagreed with the condition,
    so the final state must be identical. [run]'s [predict_policy] lets
    tests drive the predict decisions arbitrarily and check exactly that. *)

open Bv_ir

exception Fault of string
(** Raised for architectural faults: unaligned or out-of-range non-
    speculative memory access, return with empty call stack, PC out of
    code bounds. Speculative loads never fault — they return 0 instead. *)

type decoded
(** An image decoded for execution: one flat [int array] of four words
    per instruction, built once by {!init} (see docs/INTERNALS.md). *)

type state =
  { regs : int array;
    mem : int array;
    mutable pc : int;
    mutable halted : bool;
    mutable instr_count : int;
    mutable load_count : int;
    mutable store_count : int;
    call_stack : int Stack.t;
    decoded : decoded  (** the image this state runs *)
  }

val init : Layout.image -> state
(** Fresh state at the image entry with segment-initialised memory, and
    the image decoded once for {!step} and {!run}. *)

type hooks =
  { on_branch : id:int -> pc:int -> taken:bool -> unit;
        (** called for every executed [Branch] *)
    on_resolve : id:int -> pc:int -> mispredicted:bool -> taken:bool -> unit
        (** called for every executed [Resolve]; [taken] is the original
            branch outcome *)
  }

val no_hooks : hooks

val step :
  ?hooks:hooks ->
  ?predict_policy:(pc:int -> id:int -> bool) ->
  Layout.image ->
  state ->
  unit
(** Execute one instruction. No-op when halted. [image] must be the one
    the state was made from by {!init}: [Invalid_argument] otherwise. A
    {!Fault} leaves the state as the faulting instruction found it, but
    with that instruction counted (and, for a load or store, its
    load or store). *)

val run :
  ?hooks:hooks ->
  ?predict_policy:(pc:int -> id:int -> bool) ->
  ?max_instrs:int ->
  Layout.image ->
  state
(** Run from a fresh state until [Halt] or [max_instrs] (default 100M)
    instructions. [predict_policy] defaults to always-false. *)

val mem_digest : state -> int
(** FNV-1a-style fold over the memory image's words, lowest address
    first. It depends on the order: the same words at other addresses
    give another digest. *)

val reg_digest : state -> int

val arch_digest : state -> int
(** Digest of memory plus the store count — what a correctness oracle
    compares between a program and its transformed version. Registers are
    deliberately excluded: the transformation introduces scratch
    temporaries (and re-executes condition slices in correction blocks),
    so dead register values may differ while all memory effects agree. *)
