(** Cutpoint enumeration for region-based analyses.

    A {e cutpoint} set is a set of block labels such that every cycle of
    the CFG passes through at least one of them; the regions between
    cutpoints are then acyclic and can be explored path-by-path (the
    basis of the translation-validation pass in {!Bv_analysis}). The
    canonical choice bundled here: the procedure entry, control-flow
    join points (reconvergence), loop headers (back-edge targets) and
    call return points. *)

open Bv_isa

val compute : ?include_joins:bool -> Cfg.t -> Label.t list
(** The entry ∪ joins (reachable blocks with two or more distinct
    predecessors; left out when [include_joins] is [false]) ∪ back-edge
    targets (targets [v] of edges [u -> v] where [v] dominates [u]: loop
    headers under reducible control flow) ∪ retreating-edge targets of a
    depth-first walk from the entry (the irreducible safety net) ∪ the
    [return_to] blocks of reachable [Call]s, restricted to reachable
    blocks, in reverse postorder. Computes the dominators once. *)

val regions_acyclic : Cfg.t -> cuts:Label.t list -> bool
(** True iff every CFG cycle passes through a label in [cuts] — i.e.
    the subgraph induced by non-cut reachable blocks is acyclic, so the
    inter-cutpoint regions have finitely many paths. *)
