(** Assert conversion / superblock-style straightening for {e highly
    biased} branches — the third quadrant of the paper's Figure 1 (the
    paper cites Neelakantam et al.'s hardware atomicity as the
    assert-conversion mechanism and superblocks as the classic compiler
    answer).

    For a hammock whose branch almost always goes one way, the pass lays
    the likely successor directly behind the branch's block and fuses the
    two into one scheduling region, expressed with the same machinery as
    the decomposed-branch transformation but with a {e static} prediction:

    - block [A] ends in an unconditional fall-through to a single
      resolution block containing the condition slice, the hoisted likely
      successor, and a [resolve] asserting the likely direction;
    - a misprediction (the rare direction) jumps to correction code that
      runs the rare successor.

    Unlike the dynamic decomposition there is no [predict] and no DBB
    traffic — the "prediction" is the layout itself. The cost is the rare
    direction's full misprediction penalty on every occurrence, which is
    why this is only profitable at very high bias. *)

open Bv_isa
open Bv_ir

type site_report =
  { site : int;
    proc : Label.t;
    likely_taken : bool;  (** which way the assert points *)
    hoisted : int
  }

type result =
  { program : Program.t;
    reports : site_report list;
    skipped : (int * string) list
  }

val apply :
  ?prove:bool ->
  ?exit_live:Reg.t list ->
  candidates:(Select.candidate * bool) list ->
  Program.t ->
  result
(** Each candidate carries [likely_taken], usually
    [taken_rate >= 0.5] from the profile. The pass runs through
    {!Transform.rewrite} with its defaults: the same scratch-register
    clash check, site set-up and preconditions (sinkable slice),
    scheduling and speculation-safety post-pass; [prove] (translation
    validation against the input program) and [exit_live] as there. *)
