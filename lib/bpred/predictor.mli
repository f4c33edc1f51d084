(** Common conditional-branch direction predictor interface.

    The interface mirrors what the paper's Decomposed Branch Buffer stores:
    a prediction made at fetch produces a meta payload (history snapshot
    plus the table indices/metadata needed for a later update), the payload
    travels with the branch (in the DBB for decomposed branches, with the
    instruction otherwise), and at resolution the payload is passed back to
    train the tables ({!field-update_at}) or to repair the speculative global
    history after a misprediction ({!field-recover_at}).

    {b Meta storage.} The payload lives in storage the caller owns: a
    {e row} of [meta_words] consecutive ints, [buf.(off)] to
    [buf.(off + meta_words - 1)], of any int array. The timing model keeps
    one preallocated row per in-flight instruction and per DBB slot, so a
    prediction allocates nothing.
    - {!field-predict_at} writes every word of the row and never depends
      on its previous contents.
    - {!field-update_at} and {!field-recover_at} only read the row.
    - The predictor keeps no reference to the row between calls. The
      caller must leave the row intact from the {!field-predict_at} that
      wrote it until the last {!field-update_at} or {!field-recover_at}
      that reads it; the row may be reused for the next prediction after
      that.

    [predict] receives the architecturally correct outcome as [~outcome]
    because the simulator is functional-first (it knows outcomes at fetch
    time). Every predictor except the perfect oracle must ignore it. *)

type meta = int array
(** A meta row in an array of its own (offset 0), as the allocating
    wrappers {!field-predict}, {!field-update} and {!field-recover} use it.
    Word 0 is conventionally the global history snapshot taken just before
    this branch shifted in; the remaining words are predictor-specific. *)

type t =
  { name : string;
    storage_bits : int;  (** approximate hardware budget of all tables *)
    meta_words : int;  (** width of one meta row, possibly 0 *)
    predict_at : int array -> int -> pc:int -> outcome:bool -> bool;
        (** [predict_at buf off ~pc ~outcome] returns the predicted
            direction, writes the meta row at [buf.(off)], and
            speculatively shifts the prediction into the global history.
            Allocates nothing. *)
    update_at : int array -> int -> pc:int -> taken:bool -> unit;
        (** Train the tables with the actual outcome, using the meta row
            its prediction wrote. Does not touch the speculative
            history. *)
    recover_at : int array -> int -> taken:bool -> unit;
        (** Misprediction repair: reset the speculative global history to
            the snapshot in the meta row with the corrected outcome
            shifted in. *)
    predict : pc:int -> outcome:bool -> bool * meta;
        (** {!field-predict_at} into a fresh row. Allocates; for tests and
            micro-benchmarks. *)
    update : meta -> pc:int -> taken:bool -> unit;
        (** {!field-update_at} on a row made by {!field-predict}. *)
    recover : meta -> taken:bool -> unit
        (** {!field-recover_at} on a row made by {!field-predict}. *)
  }

val make :
  name:string ->
  storage_bits:int ->
  meta_words:int ->
  predict_at:(int array -> int -> pc:int -> outcome:bool -> bool) ->
  update_at:(int array -> int -> pc:int -> taken:bool -> unit) ->
  recover_at:(int array -> int -> taken:bool -> unit) ->
  t
(** Build a predictor from its row-based entry points; the allocating
    wrappers are derived from them. *)

val counter_update : int -> taken:bool -> max:int -> int
(** Saturating counter step: increment towards [max] on taken, decrement
    towards 0 otherwise. *)

val counter_taken : int -> max:int -> bool
(** Does a saturating counter currently predict taken (counter in the upper
    half of its range)? *)

val counters : int -> Bytes.t
(** A table of [n] saturating counters of up to 8 bits, one byte each,
    every one at 1 (weakly not-taken for a 2-bit counter). Counter tables
    are [Bytes], not [int array]: the major GC never scans them, and a
    2-bit counter costs one byte, not eight. *)

val train : Bytes.t -> int -> taken:bool -> max:int -> unit
(** [train table i ~taken ~max] steps the counter at index [i] with
    {!counter_update}. *)

val hash_pc : int -> int
(** Cheap PC mixing used by all table indexing. *)

val no_recover : int array -> int -> taken:bool -> unit
(** [recover_at] of a predictor without speculative history. *)

val always : bool -> t
(** Static predictor: always taken / always not-taken. Zero storage. *)

val perfect : t
(** Oracle: echoes [~outcome]. Upper bound for the sensitivity study. *)
