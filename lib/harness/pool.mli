(** Fork-based worker pool for embarrassingly parallel harness work.

    {!map} behaves exactly like [List.map f items] — same results, same
    order — but with [jobs > 1] the items are handed out one at a time
    to forked worker processes, each to whichever worker is free, and
    the results come back marshalled over pipes. Reassembly is by index,
    so output is deterministic: a [jobs:4] run produces byte-identical
    results to a [jobs:1] run of the same deterministic [f].

    Constraints: results must be marshallable (no closures — plain
    strings, numbers, records); side effects of [f] (memo-table fills,
    prints to buffered channels) stay in the worker, except writes to
    stderr/files which interleave. *)

exception
  Worker_failure of
    { index : int;  (** index of the item that failed *)
      message : string;
          (** the worker's exception text, verbatim — [f] raised or its
              result could not be marshalled — or how the worker died
              holding the item, naming the signal that killed it *)
      backtrace : string  (** child's backtrace, verbatim (may be empty) *)
    }

val jobs_env : unit -> int
(** Worker count from [BV_JOBS] (default 1).
    @raise Invalid_argument naming [BV_JOBS] unless it is an integer
    >= 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [jobs] defaults to 1. With [jobs <= 1] or one item, [f] runs in the
    current process and its exceptions propagate raw. Otherwise
    [min jobs n] workers are forked; an item that fails does not stop
    the others, a worker that dies is replaced while items remain, and
    once every item is settled the lowest failing index is raised as
    {!Worker_failure}. *)
