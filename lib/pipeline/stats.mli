(** Counters collected by a timing-model run. *)

type t =
  { mutable cycles : int;
    mutable fetched : int;  (** instructions entering the fetch buffer *)
    mutable issued : int;  (** issued, including later-squashed *)
    mutable squashed_issued : int;
    mutable squashed_fetched : int;  (** squashed before issuing *)
    mutable predicts_fetched : int;  (** predict instructions steered+dropped *)
    mutable branch_execs : int;
    mutable branch_mispredicts : int;
    mutable resolve_execs : int;
    mutable resolve_mispredicts : int;
    mutable ret_execs : int;
    mutable ret_mispredicts : int;
    mutable redirects : int;  (** all pipeline flushes *)
    mutable loads_issued : int;
    mutable stores_issued : int;
    mutable head_stall_cycles : int;  (** cycles with zero issue, head blocked *)
    mutable operand_stall_cycles : int;
    mutable fu_stall_cycles : int;
    mutable mem_struct_stall_cycles : int;
    mutable frontend_empty_cycles : int;  (** nothing eligible to issue *)
    mutable dbb_full_stalls : int;
    mutable dbb_occupancy_sum : int;
    mutable dbb_samples : int;
    mutable dbb_max_occupancy : int;
    mutable icache_stall_cycles : int;
    mutable icache_misses : int;
    mutable runahead_prefetches : int;
    mutable icache_misses_in_shadow : int;
        (** I$ misses within the redirect shadow of a misprediction (§6.1) *)
    sites : int array;
        (** the branch/resolve site ids the image contains, ascending and
            distinct; position [k] is site [sites.(k)]'s {e slot} in the
            three tables below. Sized once per image at {!create}, so a
            run's stats weigh the same whatever the ids' magnitude. *)
    site_stalls : int array;
        (** slot -> cycles the issue head stalled on that site; 0 = never
            stalled *)
    site_wait_execs : int array;  (** slot -> executions *)
    site_wait_cycles : int array
        (** slot -> summed backlog cycles: how far behind the front end
            the machine was running when the site's condition finally
            became ready — an issue-backlog indicator, not a pure
            condition latency (queueing and the condition are confounded
            in an in-order backlog) *)
  }

val create : sites:int array -> t
(** Zeroed counters with one slot per distinct id of [sites] (any order,
    duplicates allowed). {!Machine_state.create} passes the ids of every
    branch and resolve in the image. *)

val slot : t -> int -> int
(** The slot of a site id, or -1 when [create] was not given it. A
    binary search: resolve slots once, off the per-cycle path. *)

val retired : t -> int
(** Instructions that issued and were never squashed. *)

val ipc : t -> float

val mispredicts : t -> int
(** Direction mispredictions: branches + resolves (not returns). *)

val mppki : t -> float

val dbb_avg_occupancy : t -> float

val site_stall_cycles : t -> int -> int
(** Issue-head stall cycles charged to a site id (0 for an id the image
    lacks). *)

val add_site_stall : t -> slot:int -> unit
(** Charge one stall cycle to a slot (not a site id; see {!slot}). *)

val add_site_stalls : t -> slot:int -> n:int -> unit
(** Charge [n] stall cycles at once (a skipped stretch of parked cycles). *)

val add_site_wait : t -> slot:int -> cycles:int -> unit
(** Record one execution of a slot's site and its backlog [cycles]. *)

val site_wait_avg : t -> int -> float
(** Average backlog cycles for a site id (0 if never executed or absent
    from the image). *)

val pp : Format.formatter -> t -> unit

val to_json : ?acct:Acct.t -> ?sampled:Smarts.estimate -> t -> Bv_obs.Json.t
(** Every counter of [t] (raw and derived: [retired], [ipc], [mppki],
    [dbb.avg_occupancy]) plus the per-site stall/wait tables, sorted by
    site id, stamped with {!Bv_obs.Json.schema_version}. The
    machine-readable mirror of [pp]. Passing the run's [acct] appends
    the [cpi_stack] and [top_branches] sections; passing an
    interval-sampled run's estimate appends the ["sampled"] section
    (extrapolated CPI / IPC / MPPKI with 95% confidence intervals). *)
