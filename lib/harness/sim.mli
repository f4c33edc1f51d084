(** The unified simulation engine: one session object carrying the
    run-path policy — worker count and the memoized experiment
    {!Dag} — that {!Experiments} and the CLI share instead of each
    re-implementing prepare/memoise/simulate plumbing.

    The two costly stages are DAG nodes content-hashed into the
    session's [BV_CACHE] store: prepare (profile → select → transform,
    kind ["prepare"]) and one timing run per side ({!simulate}, kind
    ["sim"]). A node is evaluated at most once per store — re-runs hit,
    concurrent processes on one store cooperate via claim files, and
    {!counters_json} reports the hit/miss/stolen split for every
    [--json] emitter. Everything built on them — experiment rows,
    proofs, advice — is recomputed on every run and fanned out by
    {!map}.

    A [jobs:n] session produces byte-identical results to a [jobs:1]
    session: work reassembles by index and every computation is
    deterministic. *)

open Bv_bpred
open Bv_cache
open Bv_pipeline
open Bv_workloads

type t

val create : ?jobs:int -> ?cache_dir:string -> unit -> t
(** Fresh session: [jobs] workers (default 1), DAG store at
    [cache_dir] (default none — no persistence, no cross-process
    cooperation). *)

val the : unit -> t
(** The process-wide default session, configured from the environment on
    first use: [BV_JOBS] workers, DAG store at [BV_CACHE] (default
    [.bv-cache]; set [BV_CACHE=none] to disable). *)

val jobs : t -> int
val set_jobs : t -> int -> unit
val cache_dir : t -> string option

val counters : t -> Dag.counters
(** DAG hit/miss/stolen totals for this session, the nodes that {!map}'s
    forked workers evaluated included. *)

val counters_json : t -> Bv_obs.Json.t

val prepare :
  ?predictor:Kind.t -> ?threshold:float -> ?max_hoist:int -> t ->
  Spec.t -> Runner.bench
(** {!Runner.prepare} as a DAG node: the key digests the spec, profile
    predictor, threshold, hoist cap, workload scale and
    {!Dag.code_format}, so any input change misses cleanly. Live
    benches are interned per node key for the life of the session —
    equally parameterised prepares share one bench and its images. Each
    call counts as one node (a memo hit after the first), so the
    counters do not depend on how {!map} spreads items over workers.
    Bump {!Dag.code_format} when the compile pipeline's semantics
    change. *)

val bench : t -> Spec.t -> Runner.bench
(** Default-parameter {!prepare}. *)

val simulate : t -> config:Config.t -> Runner.image -> Runner.run
(** {!Runner.simulate} as a DAG node (kind ["sim"]), the one node kind
    that simulates: every timing run but an observed one goes through
    it. The key is the image's content digest and the whole [config],
    so any two benches, inputs or experiments that time the same image
    on the same machine share one run. The label names the image, an
    8-hex prefix of its digest, {!Config.name} and every config field
    that differs from [Config.make ~predictor ~width ()] (e.g.
    [l1i=24K/3w], [dbb=4], [runahead]). *)

val pair :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Runner.bench -> input:int -> width:int -> Runner.run * Runner.run
(** The baseline and decomposed sides of one REF input, each a
    {!simulate} node on [Config.make ?predictor ?cache ~width ()]. *)

val avg_speedup :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Runner.bench -> width:int -> float
(** Mean over REF inputs of the per-input {!pair} speedup (the paper's
    "averaged over all reference inputs"). *)

val best_speedup :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Runner.bench -> width:int -> float

type advice_checked =
  { ac_advice : Bv_analysis.Advisor.t;
    ac_validation : Bv_analysis.Advisor.validation;
    ac_inputs : int;  (** REF inputs the measured side aggregates *)
    ac_max_outstanding : int
        (** peak DBB occupancy {!Bv_analysis.Speculation.max_outstanding}
            proves for the transformed program — the advisor's static
            window-pressure estimate must cover it *)
  }
(** Plain data throughout: an advise-and-validate result can come back
    from a {!map} worker. *)

val advise_validate :
  ?predictor:Kind.t ->
  ?cache:Hierarchy.config ->
  ?config:Bv_analysis.Advisor.config ->
  ?interproc:bool ->
  ?inputs:int list ->
  t ->
  Runner.bench ->
  width:int ->
  advice_checked
(** {!Runner.advise}, then join the static cycles-saved ranking against
    measured per-site recovery cycles of the baseline side of the REF
    [inputs] (default [[1]]; pass {!Runner.input_indices} for all of
    them, merged) at [width]. The validation reports the Spearman rank
    correlation and the sites whose static and measured ranks diverge. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f items] over the session's workers ({!Pool.map}), in
    input order and byte-identical for any [jobs]. With [jobs > 1], [f]
    runs in forked workers, so its results must be marshal-safe, and the
    DAG nodes they evaluate are added to this session's {!counters}. *)
