(** Top-down cycle accounting: the CPI stack and per-branch attribution.

    An accumulator of two tables filled by the accounted cycle loop
    (see {!Machine_state.account_cycles} for the classifier and
    [docs/INTERNALS.md] for the charge-point map):

    - a CPI stack — every simulated cycle charged to exactly one of
      {!n_components} components, so the stack sums to total cycles
      ({!check} asserts this conservation invariant);
    - a per-pc branch attribution table — executions, mispredicts,
      recovery cycles charged, and a log2 resolution-latency histogram
      for every control instruction.

    Storage is flat int arrays indexed by component / pc (mirroring the
    pipeline's [static_info] layout), so recording allocates nothing and
    a table marshals cleanly through the fork-pool harness. *)

val n_components : int

(** Component indices into {!t.components} / {!component_names}. *)

val c_base : int
(** Issue made progress (or the stall is an unattributed dependency). *)

val c_fetch_starve : int
(** Front end empty with fetch unblocked (front-stage fill, fetch off the
    end of the code, spec-halted). *)

val c_icache : int
(** Fetch stalled out by an instruction-cache miss. *)

val c_redirect : int
(** Fetch stalled by a taken-branch bubble / BTB-miss penalty. *)

val c_recovery : int
(** Post-flush refill shadow of a misprediction, charged until issue
    resumes — attributed to the mispredicting pc. *)

val c_dbb : int
(** Fetch stalled on a full decomposed-branch buffer. *)

val c_fu : int
(** Issue head blocked on a functional-unit slot. *)

val c_mem_struct : int
(** Issue head blocked on MSHRs / the store buffer. *)

val c_memory : int
(** Issue head blocked on an operand produced by an in-flight load. *)

val component_names : string array
(** JSON / display name per component index. *)

val lat_buckets : int
(** Histogram width: bucket [k] counts resolution latencies in
    [2^k, 2^(k+1)), the last bucket open-ended. *)

type t =
  { components : int array;  (** cycles charged, indexed by component *)
    execs : int array;  (** control-instruction completions, by pc *)
    mispredicts : int array;
    recovery_cycles : int array;
        (** recovery cycles charged to the mispredicting pc *)
    lat_sum : int array;  (** summed fetch-to-completion latency, by pc *)
    lat_hist : int array;  (** indexed [pc * lat_buckets + bucket] *)
    code : Bv_isa.Instr.t array
  }

val create : Bv_isa.Instr.t array -> t
(** Fresh zeroed tables sized for [code]; pass [image.Layout.code]. *)

val length : t -> int
(** Number of pcs covered (the code length at [create]). *)

val record_branch : t -> pc:int -> mispredict:bool -> latency:int -> unit
(** Called at control-instruction completion; [latency] is
    fetch-to-completion in cycles. *)

val record_recovery : t -> pc:int -> n:int -> unit
(** Charge [n] recovery cycles to the mispredicting [pc]. *)

val total : t -> int
(** Sum of the component counters. *)

val check : t -> cycles:int -> unit
(** Conservation invariant: raises [Invalid_argument] unless
    [total t = cycles]. *)

val merge : t -> t -> t
(** Pointwise sum of two tables over the same code (per-input aggregation
    through the fork pool). Raises [Invalid_argument] when the tables
    cover different code lengths. *)

type site_agg =
  { sa_site : int;
    sa_execs : int;
    sa_mispredicts : int;
    sa_recovery : int;
    sa_lat_sum : int
  }

val by_site : t -> site_agg list
(** Per-pc rows folded up to branch/resolve site ids (ascending), the
    join key between a baseline branch and its decomposed resolve in
    [vanguard_cli report]. *)

val cpi_stack_json : t -> Bv_obs.Json.t
(** [{"cycles": total, "<component>": cycles, ...}]. *)

val top_branches_json : ?top:int -> t -> Bv_obs.Json.t
(** The [top] (default 10) executed control pcs ranked by recovery cycles
    caused, then mispredicts, then executions. *)

val to_json : ?top:int -> t -> Bv_obs.Json.t
(** [{"cpi_stack": ..., "top_branches": ...}]. *)
