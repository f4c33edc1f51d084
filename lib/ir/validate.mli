(** Structural well-formedness checks for programs.

    Checks performed:
    - block labels are unique program-wide, procedure names are unique and
      distinct from block labels;
    - every intra-procedural terminator target names a block of the same
      procedure;
    - [Call] targets name a procedure, and the [return_to] block is laid out
      immediately after the calling block (the machine returns to the
      instruction after the [call]);
    - every procedure's entry is its first block;
    - branch-site ids of [Branch] terminators are unique program-wide, as
      are [Predict] site ids and (per predicted direction) [Resolve] site
      ids — a site may carry one predicted-taken and one predicted-not-taken
      resolve arm, but not two of the same direction;
    - each [Predict] site id is matched by at least one [Resolve] with the
      same id, and neither predict nor resolve ids collide with branch ids;
    - a [Resolve] id with no matching [Predict] is allowed only in the lone,
      single-arm assert-style form produced by assert-conversion; two or
      more predictless arms for one id are an error;
    - a [Ret] in a procedure that is never a call target is an error — it
      could only ever execute with an empty call stack, a guaranteed
      runtime fault. *)

val errors : Program.t -> (Bv_isa.Label.t option * string) list
(** Every violation, in the order {!check} reports them, each with the
    label of the block it names, if it names one. *)

val check : Program.t -> (unit, string list) result
(** [check p] is [Ok ()] or [Error messages]. *)

val check_exn : Program.t -> unit
(** Raises [Invalid_argument] with all messages joined. *)
