(** Static per-branch cost model for the Decomposed Branch Transformation.

    For every conditional branch of a procedure this pass computes, without
    running anything, the quantities that decide whether decomposing the
    branch pays:

    - the {e condition slice} (the backward dependence closure of the
      branch's source within its block) and its dependence height under
      the scheduler's latency model — memory edges relaxed by {!Alias},
      so a provably-disjoint store does not inflate the slice's height.
      The height is the static analogue of the paper's resolution slack:
      how long the resolve trails the predict;
    - per successor side, the store-free {e hoistable prefix} as
      {!Hammock.hoistable_prefix} decides it for the rewrite (where it
      stops, which destinations take scratch registers, which
      conditional moves need a seed copy), its standalone dependence
      height, and the height of the merged resolution-block body (slice
      plus prefix) — the difference is the overlap a correct prediction
      buys;
    - a {e predictability class} from dominator/loop structure
      ({!Loops}): loop latches, loop exits, loop-invariant guards,
      data-dependent hammocks and straight-line code misbehave very
      differently under a predictor, and the class supplies a prior when
      no profile is available;
    - static DBB pressure (how many candidate windows can overlap the
      site's own window) and the code growth the rewrite would cost.

    Structural or slice-safety violations that would make the
    transformation skip the site are reported per site as an ineligibility
    reason: {!Hammock.shape_reason} or {!Hammock.slice_hazard}, the rules
    {!Vanguard.Select} and the transformation apply. *)

open Bv_isa
open Bv_ir

type pred_class =
  | Loop_back  (** backward branch: a loop latch, never transformed *)
  | Loop_exit  (** in a loop, one successor leaves its body *)
  | Loop_invariant
      (** in a loop, slice inputs loop-invariant and load-free: the guard
          resolves the same way every iteration *)
  | Data_dependent
      (** in a loop with a loaded or loop-varying condition — the paper's
          poorly-predicted hammock *)
  | Straightline  (** outside any loop *)

val pred_class_name : pred_class -> string

val class_prior : pred_class -> float
(** Default predictability assumed for the class when no profile covers
    the site (e.g. loop exits predict well, data-dependent hammocks
    poorly). *)

type side =
  { prefix : int;  (** hoistable store-free prefix length, in instructions *)
    renamed : int;  (** destinations that need scratch temporaries *)
    seeds : int;  (** seed moves for renamed conditional-move targets *)
    prefix_height : int;  (** dependence height of the prefix alone *)
    merged_height : int
        (** dependence height of slice + speculative prefix — the
            resolution block body *)
  }

type site_cost =
  { proc : Label.t;
    block : Label.t;
    site : int;
    ineligible : string option;
        (** [Some reason] when the transformation would skip the site;
            heights below are still computed where meaningful *)
    forward : bool;
    pred_class : pred_class;
    loop_depth : int;
    slice_size : int;
    slice_height : int;  (** static resolution slack, in cycles *)
    not_taken : side;
    taken : side;
    dbb_residency : int;
        (** cycles a DBB entry stays allocated: slice height plus the
            predict/resolve handshake *)
    window_pressure : int;
        (** candidate windows (this one included) that can be
            simultaneously outstanding across this site's window — must
            stay within the machine's DBB entries *)
    code_growth : int  (** net static instructions added by the rewrite *)
  }

val analyze_proc :
  ?max_hoist:int -> ?exit_live:Reg.t list -> ?summaries:Summary.env ->
  Proc.t -> site_cost list
(** Cost every conditional branch of the procedure, in layout order.
    [max_hoist] (default 16) caps the hoist as in the transformation;
    [exit_live] is the calling convention used for the renaming liveness
    (default: all registers, matching the transform). [summaries]
    (default absent — byte-identical to the historical behaviour) feeds
    {!Alias.analyze}'s [call_mod] hook so register intervals survive
    calls, and switches the slice-safety test to the alias-checked store
    rule — the same two relaxations {!Transform.apply}'s [~summaries]
    mode applies, so eligibility verdicts keep agreeing. *)

val analyze :
  ?max_hoist:int -> ?exit_live:Reg.t list -> ?summaries:Summary.env ->
  Program.t -> site_cost list

val to_json : site_cost -> Bv_obs.Json.t
