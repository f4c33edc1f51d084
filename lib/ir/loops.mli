(** Natural-loop structure of a procedure, from dominator-identified back
    edges.

    A back edge is a CFG edge [latch -> header] whose target dominates its
    source; the natural loop of a header is the header plus every block
    that reaches one of its latches without passing through the header.
    Loops sharing a header are merged. Used by the cost-model advisor to
    classify branch predictability (loop exits and loop-invariant guards
    behave very differently from data-dependent hammocks) — and available
    to any region-formation pass. *)

open Bv_isa

type t

val compute : Cfg.t -> t
(** Computes the graph's dominators once. *)

val back_edges : t -> (Label.t * Label.t) list
(** [(latch, header)] pairs, in layout order of the latch. *)

val headers : t -> Label.t list

val body : t -> Label.t -> Label.t list
(** Blocks of the natural loop with the given header (header included),
    sorted. Empty for a non-header label. *)

val innermost : t -> Label.t -> Label.t option
(** Header of the smallest loop containing the block, if any. *)

val in_loop : t -> header:Label.t -> Label.t -> bool

val depth : t -> Label.t -> int
(** Number of loops containing the block (0 outside any loop). *)
