(** End-to-end per-benchmark pipeline: generate → profile (TRAIN) →
    select → transform → schedule → simulate (REF inputs), with memoised
    simulation results so multiple experiments can share runs. *)

open Bv_bpred
open Bv_cache
open Bv_pipeline
open Bv_workloads

type bench

val scale : unit -> float
(** Workload scale factor from the [BV_SCALE] environment variable
    (default 1.0): multiplies each spec's outer repetitions. Use e.g.
    [BV_SCALE=0.5] for quick runs. Read once and memoised, so a single
    run never mixes factors.
    @raise Invalid_argument naming [BV_SCALE] unless it is a finite
    number > 0. *)

type artifact
(** The pure (marshal-safe) payload of a prepared bench: spec, profile,
    selection, transform and static sizes — everything except the memo
    tables. Persisted by {!Sim}'s artifact cache. *)

val export : bench -> artifact
val import : artifact -> bench
(** [import (export b)] is an equivalent bench with empty memo tables. *)

val prepare :
  ?predictor:Kind.t -> ?threshold:float -> ?max_hoist:int -> Spec.t -> bench
(** Profile with [predictor] (default the baseline tournament) on the TRAIN
    input and apply selection + transformation. *)

val spec : bench -> Spec.t
val profile : bench -> Bv_profile.Profile.t
val selection : bench -> Vanguard.Select.t
val transform : bench -> Vanguard.Transform.result

val baseline_static : bench -> int
(** Laid-out baseline code size in instructions. *)

val experimental_static : bench -> int

val piscs : bench -> float
(** Percent increase in static code size. *)

val baseline_program : bench -> input:int -> Bv_ir.Layout.image
val experimental_program : bench -> input:int -> Bv_ir.Layout.image

type sim_pair =
  { base : Machine.result;
    exp : Machine.result;
    speedup_pct : float  (** 100 * (base cycles / exp cycles - 1) *)
  }

val simulate :
  ?predictor:Kind.t ->
  ?cache:Hierarchy.config ->
  bench ->
  input:int ->
  width:int ->
  sim_pair
(** Simulate one REF input at one width, baseline vs. transformed. Results
    are memoised per (input, width, predictor, cache geometry). Raises
    [Failure] if either run diverges from the functional interpreter's
    architectural digest. *)

val avg_speedup :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> bench -> width:int -> float
(** Mean over REF inputs of the per-input speedup (the paper's
    "averaged over all reference inputs"). *)

val best_speedup :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> bench -> width:int -> float

val input_indices : unit -> int list
(** The REF input indices, [1 .. Suites.ref_inputs]. *)

val pair_to_json : sim_pair -> Bv_obs.Json.t
(** Speedup plus both runs' {!Machine.result_to_json}. *)

type sim_summary =
  { sum_speedup_pct : float;
    sum_base : Stats.t;  (** baseline run's counters *)
    sum_exp : Stats.t
  }
(** The marshal-safe essence of a {!sim_pair}: speedup plus both runs'
    stat counters — everything the experiment tables read, none of the
    hierarchy/config state {!Machine.result} drags along. This is the
    payload {!Sim}'s DAG persists for simulation nodes. *)

val summarize : sim_pair -> sim_summary

type instrumented =
  { pair : sim_pair;
    base_samples : Sampler.t;
    exp_samples : Sampler.t;
    base_acct : Acct.t;  (** cycle accounting of the baseline run *)
    exp_acct : Acct.t
  }

val simulate_instrumented :
  ?predictor:Kind.t ->
  ?cache:Hierarchy.config ->
  ?sample_interval:int ->
  ?on_base_event:(Machine.event -> unit) ->
  ?on_exp_event:(Machine.event -> unit) ->
  bench ->
  input:int ->
  width:int ->
  instrumented
(** Like {!simulate}, but with telemetry attached: interval samplers and
    cycle accounting on both runs (window size [sample_interval],
    {!Sampler.create}'s default otherwise) and optional pipeline-event
    taps (e.g. {!Perfetto} collectors). Performs the same digest checks;
    not memoised — hooks and samplers observe a fresh simulation every
    call. *)

type accounted =
  { acc_base_cycles : int;
    acc_exp_cycles : int;
    acc_speedup_pct : float;
    acc_base : Acct.t;
    acc_exp : Acct.t
  }
(** The marshal-safe subset of an accounted baseline-vs-experimental run:
    flat tables plus cycle totals, safe to return from a {!Sim.map}
    fork-pool worker (unlike {!Machine.result}, it drags no cache
    hierarchy or config along). *)

val simulate_accounted :
  ?predictor:Kind.t ->
  ?cache:Hierarchy.config ->
  bench ->
  input:int ->
  width:int ->
  accounted
(** Simulate one REF input at one width with cycle accounting on both
    sides. Same digest checks as {!simulate}; not memoised. *)

val merge_accounted : accounted -> accounted -> accounted
(** Pointwise sum (cycles, attribution tables) with the speedup recomputed
    from the summed cycle totals — cross-input aggregation. Raises
    [Invalid_argument] when the two runs cover different code
    ({!Acct.merge}). *)

type sampled_pair =
  { samp_base : Machine.sampled;
    samp_exp : Machine.sampled;
    samp_speedup_pct : float
        (** from the extrapolated cycle estimates, not detailed cycles *)
  }

val simulate_sampled :
  ?predictor:Kind.t ->
  ?cache:Hierarchy.config ->
  ?params:Machine.sample_params ->
  bench ->
  input:int ->
  width:int ->
  sampled_pair
(** {!Machine.run_sampled} on both sides of one REF input. Fast-forward
    executes committed semantics, so the architectural digests are
    checked against the interpreter exactly as {!simulate} does — only
    the timing is an estimate. Not memoised. *)

type sampled_summary =
  { ss_speedup_pct : float;
    ss_base : Smarts.estimate;  (** baseline extrapolation + CIs *)
    ss_exp : Smarts.estimate
  }
(** The marshal-safe essence of a {!sampled_pair}: both whole-run
    estimates (plain data throughout) and the speedup they imply. The
    payload {!Sim}'s DAG persists for sample nodes. *)

val summarize_sampled : sampled_pair -> sampled_summary

val advise :
  ?config:Bv_analysis.Advisor.config ->
  ?interproc:bool ->
  bench ->
  Bv_analysis.Advisor.t
(** Run the static cost-model advisor over the bench's TRAIN program,
    fused with its TRAIN profile — ranked per-site recommendations with
    no simulation beyond what {!prepare} already did. [interproc]
    (default false) costs the sites with interprocedural summaries
    ({!Bv_analysis.Summary}), so condition slices survive calls to
    procedures that provably leave their inputs alone. *)

type advice_checked =
  { ac_advice : Bv_analysis.Advisor.t;
    ac_validation : Bv_analysis.Advisor.validation;
    ac_inputs : int;  (** REF inputs the measured side aggregates *)
    ac_max_outstanding : int
        (** peak DBB occupancy {!Bv_analysis.Speculation.max_outstanding}
            proves for the transformed program — the advisor's static
            window-pressure estimate must cover it *)
  }
(** Marshal-safe (plain data throughout): an advise-and-validate result
    can come back from a {!Sim.map} fork-pool worker. *)

val advise_validate :
  ?predictor:Kind.t ->
  ?cache:Hierarchy.config ->
  ?config:Bv_analysis.Advisor.config ->
  ?interproc:bool ->
  ?inputs:int list ->
  bench ->
  width:int ->
  advice_checked
(** {!advise}, then join the static cycles-saved ranking against measured
    per-site recovery cycles from accounted baseline runs of the REF
    [inputs] (default [[1]]; pass {!input_indices} for all of them,
    merged) at [width]. The validation reports the Spearman rank
    correlation and the sites whose static and measured ranks diverge. *)
