(** Generic lattice-based dataflow over a procedure's CFG.

    The engine is direction-agnostic: facts flow along CFG edges
    ([Forward]) or against them ([Backward]), joined at merge points with
    the lattice's [join] and pushed through a per-block transfer function.
    Iteration is a worklist seeded in reverse postorder (postorder for
    backward problems), so acyclic regions converge in one sweep and loops
    in a few. The engine reads a {!Cfg.t}: facts live in arrays indexed by
    block number, and the worklist is an int queue with a [bool array]
    marking queued blocks. Facts join in {!Cfg.t.preds} or
    {!Cfg.t.succs} order.

    Initialisation is optimistic: a block's input is the join of the facts
    of the upstream blocks {e computed so far} (plus the boundary fact at
    the entry/exit). Upstream blocks without facts contribute nothing,
    which is equivalent to seeding them with the lattice's top element —
    sound for both may- (union) and must- (intersection) problems, and it
    keeps the signature free of an explicit top.

    Blocks unreachable in the analysis direction (from the entry for
    forward problems, from any exit for backward ones) never receive
    facts; [fact_in]/[fact_out] return [None] for them. *)

open Bv_isa
open Bv_ir

type direction =
  | Forward
  | Backward

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) : sig
  type solution

  val solve :
    direction:direction ->
    boundary:L.t ->
    transfer:(Block.t -> L.t -> L.t) ->
    Cfg.t ->
    solution
  (** [solve ~direction ~boundary ~transfer g] iterates to a fixpoint.
      [boundary] enters at the procedure entry (forward) or at every
      exitless block — [Ret]/[Halt] (backward). [transfer b fact] maps a
      block's input fact to its output fact: in program order for forward
      problems, against it for backward ones. *)

  val fact_in : solution -> Label.t -> L.t option
  (** Fact at the block's entry (program order). [None] if the block was
      never reached by the analysis. *)

  val fact_out : solution -> Label.t -> L.t option
  (** Fact at the block's exit (program order). *)

  val fact_in_at : solution -> int -> L.t option
  (** [fact_in] of a block number of the solved graph. *)

  val fact_out_at : solution -> int -> L.t option
  (** [fact_out] of a block number of the solved graph. *)
end
