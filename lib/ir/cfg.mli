(** A procedure's control-flow graph over block numbers.

    Blocks are numbered in layout order, [0] being the first (the entry,
    by {!Proc.make}'s invariant). Every analysis reads this one indexed
    graph instead of rebuilding label tables: build it once per
    procedure and keep it while the block list and the terminators are
    unchanged (bodies may be rewritten in place, as the scheduler does).

    The graph assumes {!Validate}'s invariants: labels are unique (the
    first block of a label wins) and every successor label names a block
    of the procedure. *)

open Bv_isa

type t = private
  { proc : Proc.t;
    blocks : Block.t array;  (** in layout order *)
    succs : int array array;
        (** [succs.(i)] is {!Term.successors} of block [i]'s terminator,
            as block numbers, in the same order *)
    preds : int array array;
        (** one entry per edge into the block (an edge listed twice in
            [succs] appears twice here), the latest block in layout
            order first *)
    rpo : int array;
        (** the blocks reachable from the entry, in reverse postorder of
            a depth-first walk that visits successors in [succs] order *)
    rpo_number : int array;
        (** each block's position in [rpo]; [-1] if unreachable *)
    index : int Label.Tbl.t  (** label to block number *)
  }

val make : Proc.t -> t
(** Raises [Invalid_argument] if a terminator targets a label that names
    no block of the procedure. *)

val size : t -> int
(** Number of blocks. *)

val label : t -> int -> Label.t

val find : t -> Label.t -> int option
(** The number of the block with this label. *)

val number : t -> Label.t -> int
(** [find], raising [Not_found] for a label that names no block. *)

val reachable : t -> int -> bool
(** Reachable from the entry. *)

val is_forward_branch : t -> int -> bool
(** True if block [i] ends in a conditional [Branch] whose taken target
    lies strictly later in layout order (i.e. a non-loop branch;
    backward-taken branches are loop branches, which the paper leaves to
    loop transformations). *)
