(** Block-level register liveness for a procedure (backward fixpoint).

    Used by the Decomposed Branch Transformation to decide which hoisted
    destinations must be renamed to scratch temporaries: a register that is
    dead at the entry of the alternate successor can be clobbered by
    speculative code for free (the paper's "low register-pressure ...
    obviates the need for temporary registers"). *)

open Bv_isa

module Regset = Regset
(** The bitset {!Bv_isa.Regset}, under the name earlier callers use. *)

type t

val compute : ?exit_live:Regset.t -> Cfg.t -> t
(** Round-robin over the blocks in reverse layout order, with the facts
    in arrays indexed by block number. [exit_live] is the set assumed
    live at [Ret]/[Halt] (defaults to every register — conservative for
    procedures whose results flow to a caller through registers). *)

val live_in : t -> Label.t -> Regset.t
(** Registers live at block entry. Unknown labels are treated as having
    everything live (conservative). *)

val live_out : t -> Label.t -> Regset.t

val block_use_def : Block.t -> Regset.t * Regset.t
(** [use] (read before any write, including the terminator's sources) and
    [def] (written anywhere in the body). *)
