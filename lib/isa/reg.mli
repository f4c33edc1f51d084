(** Architectural registers of the hidden ISA.

    The machine exposes a flat file of general-purpose registers. The paper's
    "shadow registers" are not separate names: speculative writes between a
    [predict] and its [resolve] are buffered by the microarchitecture and
    committed when the resolve commits (see {!Bv_pipeline}), so the compiler
    can reuse architectural names for speculative computation. *)

type t
(** A register name. *)

val count : int
(** Number of architectural registers (64). *)

val make : int -> t
(** [make i] is register [ri]. Raises [Invalid_argument] unless
    [0 <= i < count]. *)

external index : t -> int = "%identity"
(** Position of the register in the file, in [0 .. count - 1]. A
    primitive needs no cross-module inlining, so register-file accesses
    cost no call even in a [-opaque] build ([dune build --profile
    dev]). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [r<i>]. *)

val to_string : t -> string

val all : t list
(** Every register, in index order. *)
