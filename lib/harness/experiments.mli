(** Reproduction harness: one entry point per table/figure of the paper,
    plus the §5.3/§6 studies and two design-choice ablations. Each
    experiment prints its rows to the given formatter (progress lines go to
    stderr, so output can be captured cleanly).

    Benchmarks are prepared and simulated through the default {!Sim}
    session's DAG nodes, so experiments that share runs (e.g. Table 2
    and Figure 8 both need the 4-wide REF runs) do not repeat work, and
    a re-run on a warm store simulates nothing. The rows themselves are
    recomputed every run, fanned out over the session's workers
    ([BV_JOBS] / [--jobs]) with {!Sim.map}: a table is byte-identical
    at any worker count. *)

val bench : Bv_workloads.Spec.t -> Runner.bench
(** The lab's memoised prepared benchmark (tournament TRAIN profile,
    default selection threshold). *)

val drain_tables : unit -> (string * string list * string list list) list
(** The (name, headers, rows) of every table emitted since the last
    drain, in emission order — the structured counterpart of the printed
    output, consumed by [vanguard_cli experiment --json]. *)

val table_to_json : string * string list * string list list -> Bv_obs.Json.t

val drain_csv_failures : unit -> string list
(** The [results/<id>.csv] paths a [BV_CSV] export failed to write since
    the last drain, in emission order. Each failure was also reported on
    stderr with its cause. *)

val table1 : Format.formatter -> unit
val fig2 : Format.formatter -> unit
val fig3 : Format.formatter -> unit
val table2 : Format.formatter -> unit
val fig8 : Format.formatter -> unit
val fig9 : Format.formatter -> unit
val fig10 : Format.formatter -> unit
val fig11 : Format.formatter -> unit
val fig12 : Format.formatter -> unit
val fig13 : Format.formatter -> unit
val fig14 : Format.formatter -> unit
val sensitivity : Format.formatter -> unit
val icache : Format.formatter -> unit
val dbb : Format.formatter -> unit
val ablation_hoist : Format.formatter -> unit
val ablation_select : Format.formatter -> unit

val runahead : Format.formatter -> unit
(** Extension: a runahead-lite (prefetch-under-stall) machine mode crossed
    with the transformation on memory-bound benchmarks — probing how much
    of the decomposition's MLP benefit hardware prefetching subsumes. *)

val ablation_predication : Format.formatter -> unit
(** Figure 1's taxonomy quantified: baseline vs if-conversion vs
    decomposition over a bias/predictability sweep. *)

val all : (string * string * (Format.formatter -> unit)) list
(** (id, description, run) for every experiment, in paper order. *)

val find : string -> (Format.formatter -> unit) option
