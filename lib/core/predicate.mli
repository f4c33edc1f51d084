(** If-conversion: the classic alternative the paper's Figure 1 assigns to
    {e unpredictable} hammocks (Allen et al., POPL 1983).

    For a hammock — block [A] ending in [cmp]+[br], successors [B]/[C] with
    a common join — the pass deletes the branch entirely: both arms execute
    unconditionally with their destinations renamed to scratch temporaries,
    arm loads become speculative (non-faulting), arm stores are steered to
    a null-sink word when their arm loses ([cmov] on the address), and a
    final [cmov] per destination selects the winning arm's value.

    The trade the paper describes falls out directly: no branch means no
    mispredictions, but every execution pays for both arms — profitable
    exactly when the branch is unpredictable enough that misprediction
    flushes cost more than the wasted issue slots. The ablation experiment
    [abl-pred] maps this crossover against the decomposed-branch
    transformation over the bias/predictability plane. *)

open Bv_isa
open Bv_ir

type site_report =
  { site : int;
    proc : Label.t;
    arm_instrs : int  (** total instructions across both converted arms *)
  }

type result =
  { program : Program.t;  (** a transformed deep copy; input untouched *)
    reports : site_report list;
    skipped : (int * string) list
  }

val apply :
  null_sink:int ->
  candidates:Select.candidate list ->
  Program.t ->
  result
(** [null_sink] is the byte address of a scratch memory word that absorbs
    stores from losing arms (must be 8-aligned, inside memory and unread by
    the program). Raises [Invalid_argument] when the program already uses
    the scratch registers ({!Bv_analysis.Hammock.check_scratch_unused},
    as {!Transform.apply} does). They are split between the two arms;
    sites whose arms need more temporaries than available, or whose shape
    is not a two-arm hammock with a common join, are skipped with a
    reason. The result is list-scheduled (without an alias oracle). *)
