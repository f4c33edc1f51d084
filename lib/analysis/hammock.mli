(** The decomposition rules (paper §3, Figure 5), defined once.

    A branch decomposes when it is a hammock, when its condition slice
    can sink below the [predict], and then each successor's store-free
    prefix hoists into the resolution block with the destinations that
    the alternate path still reads renamed to scratch registers. This
    module decides each of those questions:

    - {!Vanguard.Select} calls {!shape_reason} to pick candidates;
    - {!Vanguard.Transform} and {!Vanguard.Assertconv} build their
      rewrites from {!condition_slice}, {!slice_hazard} and
      {!hoistable_prefix}, through one rewrite loop that starts with the
      {!check_scratch_unused} clash check ({!Vanguard.Predicate} calls
      the same check);
    - {!Costmodel} prices the same decisions without building any code,
      so its eligibility verdicts and counts agree with the rewrite's by
      construction.

    {!Speculation} and {!Equiv} derive their slices and liveness on
    their own: they check the rewrite's output, so a defect here must
    not be able to hide from them. *)

open Bv_isa
open Bv_ir

val scratch : Reg.t list
(** r48–r63: the DBT-context scratch registers (paper §2.2's "additional
    registers to hold speculative values"), taken in this order by
    {!hoistable_prefix}. *)

val check_scratch_unused : caller:string -> Program.t -> unit
(** Raises [Invalid_argument] naming [caller] when the program already
    reads or writes a {!scratch} register (a branch source included): a
    rewrite would clobber its value. *)

val shape_reason : Cfg.t -> int -> string option
(** [None] when block [b] of the graph, which must end in a conditional
    branch, is a hammock the rewrite accepts: two distinct successors,
    neither [b] itself nor the procedure entry, each reached only from
    [b]. Otherwise the first violated rule. *)

val condition_slice :
  src:Reg.t -> Instr.t list -> Instr.t list * Instr.t list
(** [(slice, rest)] of a block body: the backward dependence closure of
    [src] within the block, and the instructions that stay above the
    predict, each in original order. *)

val slice_hazard :
  ?may_alias:(Instr.t -> Instr.t -> bool) ->
  slice:Instr.t list ->
  rest:Instr.t list ->
  Instr.t list ->
  string option
(** Why sinking [slice] below the rest of the block body would be
    unsafe, or [None]: an instruction of [rest] reads or redefines a
    slice register, or a store follows a slice load. [may_alias]
    (summary mode only) relaxes the store rule to stores that may alias
    a preceding slice load. *)

val must_rename : Liveness.t -> src:Reg.t -> alternate:Label.t -> Reg.t -> bool
(** A hoisted write to the register must go to a scratch register: the
    register is live into the [alternate] successor, which a wrong
    prediction reaches, or it is the branch's source, which the resolve
    reads. Any other destination is dead on the wrong path and is
    written in place. *)

type rename =
  { reg : Reg.t;  (** the architectural destination *)
    temp : Reg.t;  (** the scratch register that holds it *)
    at : int;  (** index, in the prefix, of its first write *)
    seeded : bool
        (** that first write is a conditional move, so the scratch
            register needs the running value copied in before it *)
  }

type prefix =
  { length : int;  (** leading body instructions that hoist *)
    renames : rename list  (** in the order the scratch registers go *)
  }

val hoistable_prefix :
  max_hoist:int -> must_rename:(Reg.t -> bool) -> Instr.t list -> prefix
(** The hoistable prefix of a successor body. It stops at the first store
    or control instruction, after [max_hoist] instructions other than
    [nop], or at a destination that needs a scratch register when all
    of {!scratch} is taken. *)

val holder : prefix -> int -> Reg.t -> Reg.t
(** [holder p k r]: the register that holds [r]'s value as the [k]-th
    prefix instruction reads its sources, its scratch register once an
    earlier prefix instruction renamed it. The same instruction writes
    [holder p (k + 1) dst]. *)
