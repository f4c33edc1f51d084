(** Sets of architectural registers, as a bitset.

    A set is two 32-bit words: registers [r0]..[r31] in one, [r32]..[r63]
    in the other. One OCaml [int] holds 63 bits, one short of the
    64-register file, so two words are the least that fits. Every
    operation is a few word operations; a result equal to an operand is
    that operand, so unions and differences that change nothing allocate
    nothing. Iteration is in ascending register order, as
    [Set.Make (Reg)]'s is. *)

type t

val empty : t
val is_empty : t -> bool
val mem : Reg.t -> t -> bool
val add : Reg.t -> t -> t
val singleton : Reg.t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val of_list : Reg.t list -> t

val all : t
(** Every register. *)

val iter : (Reg.t -> unit) -> t -> unit
(** In ascending register order. *)

val fold : (Reg.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s a] is [f rN (... (f r1 a))] for the members [r1 < ... < rN]. *)

val elements : t -> Reg.t list
(** In ascending register order. *)
