(** The unified simulation engine: one session object carrying the
    run-path policy — worker count and the memoized experiment
    {!Dag} — that {!Experiments}, the CLI and the bench harness all
    share instead of each re-implementing prepare/memoise/simulate
    plumbing.

    Every stage is a DAG node content-hashed into the session's
    [BV_CACHE] store: prepare (profile → select → transform,
    kind ["prepare"]), paired timing runs ({!summary}, kind ["sim"]),
    accounted runs ({!accounted}, kind ["account"]) and arbitrary
    fanned-out row work ({!dag_map}). A node is evaluated at most once
    per store — re-runs hit, concurrent processes on one store
    cooperate via claim files, and {!counters_json} reports the
    hit/miss/stolen split for every [--json] emitter.

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
(** DAG hit/miss/stolen totals for this session (the parent process's
    view — nodes resolved inside forked workers count once, here). *)

val counters_json : t -> Bv_obs.Json.t

val prepare :
  ?predictor:Kind.t -> ?threshold:float -> ?max_hoist:int -> t ->
  Spec.t -> Runner.bench
(** {!Runner.prepare} as a DAG node: the key digests the spec, profile
    predictor, threshold, hoist cap, workload scale and
    {!Dag.code_format}, so any input change misses cleanly. Live
    benches are interned per node key for the life of the session —
    equally parameterised prepares share one bench and its simulation
    memo. Bump {!Dag.code_format} when the compile pipeline's semantics
    change. *)

val bench : t -> Spec.t -> Runner.bench
(** Default-parameter {!prepare}. *)

val simulate :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Runner.bench -> input:int -> width:int -> Runner.sim_pair
(** Uncached-by-the-DAG passthrough to {!Runner.simulate} (a full
    {!Machine.result} pair is not marshal-safe); memoised on the bench
    as always. Use {!summary} when the stat counters suffice. *)

val summary :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Spec.t -> input:int -> width:int -> Runner.sim_summary
(** One paired timing run as a DAG node (kind ["sim"], dependent on the
    default-parameter prepare node): speedup and both stat blocks,
    persisted. The workhorse behind every experiment table. *)

val avg_speedup :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Spec.t -> width:int -> float
(** Mean over REF inputs of the per-input {!summary} speedup (the
    paper's "averaged over all reference inputs"). *)

val best_speedup :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Spec.t -> width:int -> float

val sampled :
  ?predictor:Kind.t -> ?cache:Hierarchy.config ->
  ?params:Machine.sample_params -> t ->
  Spec.t -> input:int -> width:int -> Runner.sampled_summary
(** One SMARTS-sampled paired run as a DAG node (kind ["sample"],
    keyed additionally by the sampling params): both whole-run
    estimates with confidence intervals, persisted. *)

val accounted :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Spec.t -> input:int -> width:int -> Runner.accounted
(** One accounted paired run as a DAG node (kind ["account"]). The
    bench is prepared with the same [predictor] it simulates with —
    the report pipeline's convention. *)

val accounted_list :
  ?predictor:Kind.t -> ?cache:Hierarchy.config -> t ->
  Spec.t -> inputs:int list -> width:int -> Runner.accounted list
(** The same account nodes for several inputs, evaluated cooperatively
    across the session's workers ({!Dag.eval_list}); results in input
    order. *)

val dag_map :
  t -> kind:string -> ?label:('a -> string) -> ('a -> 'b) -> 'a list ->
  'b list
(** [dag_map t ~kind f items]: one DAG node per item (keyed by [kind],
    the item and the workload scale), evaluated cooperatively across
    the session's workers with claim-file work stealing
    ({!Dag.eval_list}). Each item must fully determine [f item] —
    anything else [f] reads must be captured in the item or frozen in
    {!Dag.code_format}. Results are in input order; byte-identical for
    any [jobs]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!Pool.map} with the session's worker count — plain fork/join with
    no caching, for work that must re-run every time. Results must be
    marshal-safe when [jobs > 1]. *)
