(** End-to-end per-benchmark pipeline: generate → profile (TRAIN) →
    select → transform → schedule, then timing runs on the REF inputs.
    A timing run times one {e side}: one laid-out image under one machine
    {!Config.t}, with cycle accounting on and its architectural result
    checked against the functional interpreter. {!Sim} persists sides as
    DAG nodes keyed by image content and config. *)

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
    selection, transform and static sizes — everything except the
    per-input images. Persisted by {!Sim}'s artifact cache. *)

val export : bench -> artifact
val import : artifact -> bench
(** [import (export b)] is an equivalent bench with no images built. *)

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

val input_indices : unit -> int list
(** The REF input indices, [1 .. Suites.ref_inputs]. *)

(** {2 Images} *)

type image
(** A laid-out program ready to time: the image, a digest of everything
    the timing model reads from it (code, branch targets, entry, data
    segments, memory size) and the interpreter's architectural digest,
    computed on first use and at most once. *)

val image : name:string -> Bv_ir.Layout.image -> image
(** [name] is display-only (e.g. ["mcf.i1.base"]). *)

val name : image -> string

val digest : image -> string
(** Hex digest of the image's executable content: equal for two images
    the timing model cannot tell apart. *)

val baseline : bench -> input:int -> image
(** The scheduled baseline of REF input [input], built once per bench. *)

val experimental : bench -> input:int -> image
(** The decomposed-branch side of REF input [input]. *)

val baseline_program : bench -> input:int -> Bv_ir.Layout.image
val experimental_program : bench -> input:int -> Bv_ir.Layout.image

(** {2 Timing runs} *)

type run =
  { config : Config.t;
    stats : Stats.t;
    acct : Acct.t;  (** the run's CPI stack and per-branch attribution *)
    l1i : Sa_cache.stats;
    l1d : Sa_cache.stats;
    l2 : Sa_cache.stats;
    l3 : Sa_cache.stats;
    stores_retired : int
  }
(** One finished, checked side: plain data throughout, so it marshals
    into the DAG store and back from fork-pool workers. *)

type observer
(** Taps on one fresh simulation: an interval {!Sampler} over the run's
    own cycle accounting and an optional pipeline-event stream. *)

val observer :
  ?interval:int -> ?on_event:(Machine.event -> unit) -> image -> observer
(** Taps for a run of [image]: sampler windows of [interval] cycles
    ({!Sampler.create}'s default otherwise) and [on_event] (e.g.
    {!Perfetto.on_event}). *)

val samples : observer -> Sampler.t
(** The sampler's windows, complete once the observed run returns. *)

val simulate : ?observer:observer -> config:Config.t -> image -> run
(** Time [image] on [config] with cycle accounting. An [observer] steps
    every cycle to feed its sampler; without one the run skips stalls,
    with byte-identical results. Raises [Failure] naming the image when
    the run hits the cycle limit or its architectural digest differs
    from the interpreter's, and [Invalid_argument] for an observer made
    for another image. *)

val speedup_pct : base:int -> exp:int -> float
(** [100 * (base / exp - 1)]: the speedup of a run taking [exp] cycles
    over one taking [base]. *)

val merged_acct : run list -> Acct.t
(** The runs' cycle accounting summed pointwise — per-input aggregation
    over one program's REF inputs. Raises [Invalid_argument] on an empty
    list or runs over different code ({!Acct.merge}). *)

val run_to_json : run -> Bv_obs.Json.t
(** Configuration summary, {!Stats.to_json} and cache-hierarchy stats:
    the shape of {!Machine.result_to_json} for a finished run. *)

(** {2 Static advice} *)

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
