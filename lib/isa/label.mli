(** Symbolic code labels, resolved to instruction addresses at layout time. *)

type t = string

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val fresh : prefix:string -> t
(** [fresh ~prefix] returns a label that no previous call to [fresh] has
    returned. Deterministic: a global counter, no randomness. *)

val reset_fresh_counter : unit -> unit
(** Restart the [fresh] counter (useful to make test output reproducible). *)

module Tbl : Hashtbl.S with type key = t
(** Label-keyed tables compared with [String.equal], not the polymorphic
    comparison. They hash with [Hashtbl.hash], as a polymorphic
    [Hashtbl.t] does, so a table filled in the same order iterates in the
    same order. *)
