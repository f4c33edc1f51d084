(** Dominator analysis: the immediate-dominator tree of a procedure's
    {!Cfg}, by Cooper, Harvey and Kennedy's iterative algorithm over
    reverse-postorder numbers.

    Used to sanity-check transformations — e.g. after the Decomposed Branch
    Transformation, the predict block must dominate both resolution blocks
    and each resolution block its commit block — and to find the back
    edges of {!Loops} and {!Cutpoint}. *)

open Bv_isa

type t

val compute : Cfg.t -> t
(** Blocks unreachable from the entry have no dominator information and
    report [dominates = false] for everything except themselves. *)

val dominates : t -> Label.t -> Label.t -> bool
(** [dominates t a b]: every path from the entry to [b] passes through
    [a]. Reflexive. Walks [b]'s idom chain. *)

val dominates_at : t -> int -> int -> bool
(** [dominates] over block numbers of the graph [t] was computed on. *)

val idom : t -> Label.t -> Label.t option
(** Immediate dominator; [None] for the entry and unreachable blocks. *)

val dominator_tree : t -> (Label.t * Label.t list) list
(** (block, children in the dominator tree) for reachable blocks, both
    sorted by label. *)
