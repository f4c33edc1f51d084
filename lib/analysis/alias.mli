(** Flow-sensitive may-alias analysis over a procedure's memory ops.

    Built on {!Dataflow.Make}: each register is tracked as a byte
    {e interval}, either absolute or relative to a register's value at
    procedure entry — joined to an unknown top element at conflicting
    merges and havocked across calls. Intervals follow the wrap-guarded
    rules of {!Symexec.range}; the decisive one is masked indexing,
    [x & m] landing in [[0, m]] whatever [x] is, which bounds a
    dynamically computed cursor to its data window. Every [Load]/[Store]
    occurrence is then classified by the abstract address interval it
    accesses.

    Two memory ops {e may alias} unless both resolve to addresses in the
    same region (absolute, or relative to the same entry register) whose
    8-byte access windows cannot overlap. Constant (absolute) and
    register-relative regions are mutually may-aliasing — a register's
    entry value could point anywhere.

    Occurrences are keyed by physical instruction identity, so the verdict
    survives reordering (the scheduler permutes, never copies). The
    transformation does share one instruction object between two blocks
    (a condition slice sits in both resolution blocks); duplicated
    occurrences are joined conservatively. Used by
    {!Bv_sched.Sched.schedule_body} to relax its store-barrier rule to
    provably-disjoint pairs. *)

open Bv_isa
open Bv_ir

type t

type address =
  | Absolute of int * int  (** byte address within [lo, hi] *)
  | Reg_relative of Reg.t * int * int
      (** [base]'s value at procedure entry, plus a displacement within
          [lo, hi] *)
  | Unknown

val analyze : ?call_mod:(Label.t -> Reg.t list option) -> Cfg.t -> t
(** [call_mod] is an interprocedural summary hook: at a [Term.Call] to
    [target], only the registers [call_mod target] reports are havocked
    instead of all of them ([None] — unknown callee — keeps the
    all-registers worst case, as does omitting [call_mod] entirely,
    which preserves the historical intra-procedural behaviour
    byte-for-byte). Pass {!Summary.call_mod} of a computed environment. *)

(** {2 Interval domain (exposed for the interprocedural {!Summary} engine)}

    The raw register lattice: a byte interval, absolute or relative to a
    register's value at procedure entry. [facts] is indexed by
    {!Reg.index}. *)

type absval =
  | Abs of (int * int)  (** value within [lo, hi] *)
  | Entry of int * (int * int)
      (** entry-register index plus displacement interval *)
  | Top

type facts = absval array

type solution

val solve : ?call_mod:(Label.t -> Reg.t list option) -> Cfg.t -> solution
(** The forward interval solve {!analyze} is built on, without the
    per-occurrence address table. *)

val entry_facts : solution -> int -> facts option
(** Fresh copy of the register facts at the entry of the block with
    this number in the solved graph; [None] for blocks unreachable from
    the procedure entry. *)

val step_instr : facts -> Instr.t -> unit
(** Advance the facts across one body instruction, in place. *)

val address_at : facts -> base:Reg.t -> offset:int -> address
(** Abstract address of an access to [base + offset] under the facts. *)

val rebase : address -> facts -> address
(** Translate an address expressed in a {e callee}'s entry frame into
    the caller's frame, given the caller's register facts at the call:
    registers are global, so the callee's entry value of [r] is the
    caller's value of [r] at the call terminator. Wrap-guarded; anything
    that cannot be translated exactly becomes [Unknown]. *)

val address_of : t -> Instr.t -> address
(** Abstract address of a [Load]/[Store] occurrence of the analyzed
    procedure; [Unknown] for anything else. *)

val may_alias : t -> Instr.t -> Instr.t -> bool
(** Conservative: [false] only when both occurrences provably access
    disjoint words. *)
