(** Branch target buffer: tagged, direct-mapped target cache. A front end
    that predicts a branch taken without a BTB hit pays a re-steer bubble
    (it must wait for decode to produce the target). *)

type t

val create : ?entries:int -> unit -> t
(** Default 4096 entries (Table 1). *)

val find : t -> pc:int -> int
(** The predicted target if the entry is present and tag-matches, or -1
    on a miss (targets are pcs, never negative). Counts the hit or miss;
    allocation-free. *)

val update : t -> pc:int -> target:int -> unit

val hits : t -> int
val misses : t -> int
