(** Set-associative cache with true-LRU replacement and write-back,
    write-allocate policy. Only tags are tracked (data values live in the
    functional memory); the model answers hit/miss and counts traffic.

    Each set keeps its ways in recency order, most recently used first,
    with the valid ways as a prefix: a lookup scans that prefix, a hit
    moves its way to the front, a fill lands at the front and a full set
    evicts its last way. No per-way stamp is kept, and a way is one word
    out of the scanned heap: its tag shifted left by one, or'd with its
    dirty bit. *)

type t

type stats =
  { accesses : int;
    misses : int;
    evictions : int;
    writebacks : int
  }

val create :
  name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless sizes are powers of two and
    consistent, and for 1-byte lines in a single set: there a tag is a
    whole 63-bit address, one bit too wide for the packed way. *)

val name : t -> string
val line_bytes : t -> int
val sets : t -> int

val access : t -> addr:int -> write:bool -> [ `Hit | `Miss ]
(** Look up the line containing byte address [addr] and make it the most
    recently used of its set; on a miss the line is filled (allocated)
    and, when the set is full, the least recently used line evicted.
    [write] marks the line dirty; evicting a dirty line counts a
    writeback. *)

val probe : t -> addr:int -> bool
(** Non-allocating lookup: would [addr] hit right now? Neither the stats
    nor the set's recency order change. *)

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
