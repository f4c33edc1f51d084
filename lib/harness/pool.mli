(** Fork-based worker pool for embarrassingly parallel harness work.

    {!map} behaves exactly like [List.map f items] — same results, same
    order — but with [jobs > 1] the work is spread over forked worker
    processes and the results come back marshalled over pipes. Because
    assignment and reassembly are both by index, output is
    deterministic: a [jobs:4] run produces byte-identical results to a
    [jobs:1] run of the same deterministic [f].

    {!scatter} is the general engine underneath: each worker walks a
    caller-supplied {i plan} (a sequence of item indices) and sends back
    only the items its [step] actually produced, so several workers may
    cover overlapping index ranges and race benignly — the substrate for
    the claim-arbitrated work stealing in {!Dag.eval_list}. Indices a
    step declined everywhere are resolved by [gather] in the parent.

    Constraints: step results must be marshallable (no closures — plain
    strings, numbers, records); side effects of a step (memo-table
    fills, prints to buffered channels) stay in the child, except writes
    to stderr/files which interleave. Exceptions in a worker are carried
    back as {!Worker_failure} with the child's backtrace preserved
    verbatim. *)

exception
  Worker_failure of
    { index : int;  (** index of the item whose step failed *)
      message : string;  (** child's exception text, verbatim *)
      backtrace : string  (** child's backtrace, verbatim (may be empty) *)
    }

val jobs_env : unit -> int
(** Worker count from [BV_JOBS] (default 1).
    @raise Invalid_argument naming [BV_JOBS] unless it is an integer
    >= 1. *)

val scatter :
  jobs:int ->
  plan:(int -> int -> int Seq.t) ->
  step:(int -> 'b option) ->
  gather:(int -> 'b) ->
  int ->
  'b list
(** [scatter ~jobs ~plan ~step ~gather n] produces one ['b] per index
    [0..n-1], in index order. Worker [w] of [jobs] walks [plan jobs w]
    calling [step]; [Some v] is sent to the parent, [None] means the
    item was declined (e.g. another worker holds its claim). After all
    workers drain, any index nobody produced is resolved in the parent
    by [gather]. With [jobs <= 1] or [n <= 1] everything runs in the
    current process ([plan 1 0], then [gather] for the declined) and
    step exceptions propagate raw. The union of all plans must cover
    [0..n-1] — an index no plan visits is only saved by [gather]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [jobs] defaults to 1 (plain in-process [List.map]). Built on
    {!scatter} with disjoint strided plans. *)
