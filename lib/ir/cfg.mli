(** Control-flow graph utilities over a procedure. *)

open Bv_isa

val successors : Proc.t -> Block.t -> Label.t list
(** Intra-procedural successor labels of a block. *)

val predecessor_map : Proc.t -> Label.t list Label.Tbl.t
(** Map from block label to the labels of its predecessors. *)

val block_position : Proc.t -> int Label.Tbl.t
(** Map from block label to its index in layout order. *)

val block_index : Proc.t -> Block.t Label.Tbl.t
(** Map from block label to its block: {!Proc.find_block} in O(1) once
    built. Build it once per procedure and keep it while the block list
    is unchanged. *)

val reverse_postorder : Proc.t -> Label.t list
(** Blocks reachable from the entry, in reverse postorder. *)

val reverse_postorder_indexed : Block.t Label.Tbl.t -> Proc.t -> Label.t list
(** [reverse_postorder] over an index from {!block_index} of the same
    procedure. *)

val is_forward_branch : position:int Label.Tbl.t -> Block.t -> bool
(** True if the block ends in a conditional [Branch] whose taken target lies
    strictly later in layout order (i.e. a non-loop branch; backward-taken
    branches are loop branches, which the paper leaves to loop
    transformations). [position] is the {!block_position} table of the
    block's procedure, built once for all its blocks. *)
