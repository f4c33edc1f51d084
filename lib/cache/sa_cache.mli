(** Set-associative cache with true-LRU replacement and write-back,
    write-allocate policy. Only tags are tracked (data values live in the
    functional memory); the model answers hit/miss and counts traffic. *)

type t

type stats =
  { accesses : int;
    misses : int;
    evictions : int;
    writebacks : int
  }

val create :
  name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless sizes are powers of two and consistent. *)

val name : t -> string
val line_bytes : t -> int
val sets : t -> int

val access : t -> addr:int -> write:bool -> [ `Hit | `Miss ]
(** Look up the line containing byte address [addr]; on a miss the line is
    filled (allocated) and the LRU victim evicted. [write] marks the line
    dirty; evicting a dirty line counts a writeback. *)

val probe : t -> addr:int -> bool
(** Non-allocating lookup: would [addr] hit right now? No stats change. *)

val invalidate_all : t -> unit
val stats : t -> stats
val reset_stats : t -> unit
val miss_rate : t -> float
val stats_miss_rate : stats -> float

val to_json : t -> Bv_obs.Json.t
(** Geometry plus the current stats and miss rate. *)

val stats_to_json :
  name:string -> size_bytes:int -> ways:int -> line_bytes:int -> stats ->
  Bv_obs.Json.t
(** {!to_json} of a cache of this geometry holding these counters. *)
