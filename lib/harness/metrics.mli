(** Table 2 metric computations for a prepared benchmark. *)

val alpbb : Bv_ir.Program.t -> float
(** Average loads per basic block (static, over non-empty blocks). *)

val pdih : Runner.bench -> float
(** Average percent of dynamic instructions hoisted above a converted
    branch: per converted site, the TRAIN-profile execution count times the
    expected hoisted-prefix length for the direction taken, over total
    profiled instructions. *)

val phi : Runner.bench -> float
(** Average percent of successor-block instructions hoistable across
    converted sites. *)

val aspcb : Runner.bench -> base:Runner.run -> float
(** Average stall cycles per converted branch: the dynamic critical path
    of the sunk condition slice, with load latency set to the benchmark's
    measured average memory latency (cond-chase workloads resolve on cache
    misses — the paper's high-ASPCB rows). *)

val avg_load_latency : Runner.run -> float
(** Effective average data-load latency from the run's hierarchy stats. *)

type row =
  { name : string;
    spd : float;
    pbc : float;
    pdih : float;
    alpbb : float;
    aspcb : float;
    phi : float;
    mppki : float;
    piscs : float
  }

val table2_row : spd:float -> base:Runner.run -> Runner.bench -> row
(** All Table 2 columns at the paper's 4-wide configuration: [spd] is
    the speedup averaged over REF inputs ({!Sim.avg_speedup}) and [base]
    the baseline run of REF input 1, whose hierarchy stats set ASPCB's
    load latency and whose counters give MPPKI. *)

val row_to_json : row -> Bv_obs.Json.t
(** The row keyed by its (lowercase) Table 2 column names. *)
