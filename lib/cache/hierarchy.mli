(** Three-level cache hierarchy + main memory (Table 1 of the paper):

    - L1-D: 32 KB, 8-way, 64 B lines, 4-cycle latency
    - L1-I: 32 KB, 4-way, 64 B lines, 4-cycle latency (hits are pipelined
      into the front end, so only misses add latency)
    - L2: 256 KB unified, 16-way, 12 cycles
    - L3: 4 MB, 32-way, 25 cycles
    - Memory: 140 cycles

    Latency accounting is serial lookup: an access that misses to level N
    pays the hit latency of every level up to N. *)

type config =
  { l1d_bytes : int;
    l1d_ways : int;
    l1i_bytes : int;
    l1i_ways : int;
    l2_bytes : int;
    l2_ways : int;
    l3_bytes : int;
    l3_ways : int;
    line_bytes : int;
    l1_latency : int;
    l2_latency : int;
    l3_latency : int;
    mem_latency : int
  }

val default_config : config

type t

type level = L1 | L2 | L3 | Mem

val create : ?config:config -> unit -> t
val config : t -> config

val data_access : t -> addr:int -> write:bool -> int * level
(** Total latency in cycles and the level that served the access. *)

val inst_access : t -> addr:int -> int * level
(** Instruction fetch for the line containing [addr]. An L1-I hit costs 0
    extra cycles (fetch is pipelined); misses pay the lower levels. *)

val data_access_latency : t -> addr:int -> write:bool -> int
(** [data_access] without the level — identical side effects, no tuple
    allocation; the simulator hot path uses this. *)

val inst_access_latency : t -> addr:int -> int
(** [inst_access] without the level (same side effects, no allocation). *)

val l1d : t -> Sa_cache.t
val l1i : t -> Sa_cache.t
val l2 : t -> Sa_cache.t
val l3 : t -> Sa_cache.t

val reset_stats : t -> unit

val to_json : t -> Bv_obs.Json.t
(** Latency configuration plus per-level {!Sa_cache.to_json} stats. *)

val stats_to_json :
  config ->
  l1d:Sa_cache.stats ->
  l1i:Sa_cache.stats ->
  l2:Sa_cache.stats ->
  l3:Sa_cache.stats ->
  Bv_obs.Json.t
(** {!to_json} of a hierarchy of this configuration holding these
    per-level counters: a finished run's cache report without the
    hierarchy itself. *)
