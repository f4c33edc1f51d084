(** The Decomposed Branch Buffer (paper §4, Figure 7).

    A small circular buffer written by [predict] instructions at fetch and
    read by [resolve] instructions. Each entry keeps the predictor metadata
    (history snapshot and table indices — the paper's 24 bits) plus the
    predict instruction's PC and its chosen direction, so that the
    resolution can train the predictor entry that made the prediction.

    A [predict] allocates at the tail (fetch stalls when the buffer is
    full); the following [resolve] claims the newest entry at fetch and
    carries its slot index down the pipe; the entry is freed when the
    resolve executes and updates the predictor. Branch mispredictions
    restore the buffer from a snapshot, recovering the tail pointer as the
    paper describes.

    Entries live in flat parallel arrays and the interface traffics in
    ints: the DBB sits on the decomposed hot path (an allocate per
    predict, a claim and a free per resolve), so no call here allocates.
    Each slot owns a preallocated predictor meta row ({!Bv_bpred.Predictor}'s
    meta storage): a predict writes its meta straight into the row of the
    slot it allocated, and the resolve that claims the slot trains from
    that row. A restore drops only slots allocated after the restoring
    instruction, so a slot's row stays intact as long as any live resolve
    holds the slot. *)

type t

type snapshot

val create : entries:int -> meta_words:int -> t
(** [meta_words] is the predictor's meta row width. *)

val capacity : t -> int
val occupancy : t -> int
val is_full : t -> bool

val allocate : t -> pc:int -> int
(** Tail allocation; returns the slot index, or -1 when full. The caller
    then writes the slot's meta row and {!set_taken}. *)

val meta : t -> int array
(** The meta rows of all slots. *)

val meta_row : t -> int -> int
(** Offset in {!meta} of a slot's row. *)

val set_taken : t -> int -> bool -> unit
(** Record an allocated slot's predicted direction. *)

val claim_newest : t -> int
(** The most recently allocated unclaimed entry (the paper's tail-pointer
    read), marked claimed; returns its slot index. -1 when nothing is
    outstanding — which a well-formed program only produces on wrong-path
    fetch; the machine then skips the predictor update (the paper's
    "suppress spurious updates" option). *)

val slot_pc : t -> int -> int
(** Predict-instruction pc of a claimed slot. *)

val slot_taken : t -> int -> bool
(** Predicted direction of a claimed slot. *)

val free : t -> int -> unit
(** Release a slot at resolve execution. Idempotent. *)

val new_snapshot : t -> snapshot
(** Storage for one snapshot of [t], to be filled by {!snapshot}. *)

val snapshot : t -> into:snapshot -> unit
(** Record the allocation state in place: no allocation. *)

val restore : t -> snapshot -> unit
(** Misprediction repair. Restoration intersects the snapshot with the
    current contents by allocation identity: entries allocated after the
    snapshot are dropped, claim flags are reverted, and entries freed since
    the snapshot are {e not} resurrected (an older resolve may legitimately
    have retired and updated the predictor in the meantime). *)
