(** Return address stack: circular overwrite-on-overflow stack used by the
    front end to predict [ret] targets. *)

type t

val create : ?entries:int -> unit -> t
(** Default 64 entries (Table 1). *)

val push : t -> int -> unit
(** Push a return address (a pc, never negative). *)

val pop : t -> int
(** The popped return address, or -1 when empty (allocation-free, like
    {!Btb.find}). Overflowed entries are silently overwritten, so a pop
    after deep recursion may return a stale (wrong) address — exactly the
    real-hardware failure mode. *)

val depth : t -> int
val snapshot : t -> t
(** Copy, used to checkpoint at predicted branches for mispredict repair. *)

val restore : t -> from:t -> unit
