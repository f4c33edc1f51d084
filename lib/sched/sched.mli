(** Latency-aware list scheduling of basic-block bodies for an in-order
    target.

    The scheduler builds a register/memory dependence DAG over the body
    (the last writer and readers of each register in arrays indexed by
    register, each memory op checked against the earlier memory ops
    only), assigns each instruction a critical-path height (distance in
    cycles to the end of the block, counting the terminator's operands as
    consumed at the end), then issues greedily in time order: at each
    simulated cycle it picks, among instructions whose predecessors all
    started early enough ([start + delay <= cycle], and in an earlier
    cycle), the ones with the greatest height, the earliest in the body
    first among equals. A ready list does the picking: each instruction
    keeps its count of unscheduled predecessors and its earliest start,
    and is released once the last of them is placed, after that cycle's
    placements. For an in-order machine this pushes loads as early as
    their dependences allow and sinks their consumers (e.g. the compare
    feeding a resolve) towards the end — exactly the schedule shape the
    paper's transformation exists to enable.

    Memory ordering is conservative by default: stores are ordered against
    all other memory operations; load/load pairs are free to reorder. When
    a [may_alias] oracle is supplied (e.g. from {!Bv_analysis.Alias}), only
    memory pairs it cannot disprove are ordered, so provably-disjoint
    loads hoist past stores. *)

open Bv_isa
open Bv_ir

val default_latency : Instr.t -> int
(** L1-hit assumptions: loads 4, FPU ops 4, multiplies 3, everything else
    1 cycle. *)

val schedule_body :
  ?may_alias:(Instr.t -> Instr.t -> bool) ->
  ?latency:(Instr.t -> int) ->
  ?width:int ->
  term:Term.t ->
  Instr.t list ->
  Instr.t list
(** Reorder a block body. [width] (default 4) bounds how many instructions
    the greedy pass places per simulated cycle; below 1 it raises
    [Invalid_argument], whatever the body. The result is a permutation
    of the input that respects all dependences. [may_alias] relaxes the
    store-barrier rule: a memory pair is left unordered when it returns
    [false]; it must be conservative (queried on the occurrences of this
    body, by physical identity). *)

val schedule_block :
  ?may_alias:(Instr.t -> Instr.t -> bool) ->
  ?latency:(Instr.t -> int) ->
  ?width:int ->
  Block.t ->
  unit
(** In-place convenience wrapper over [schedule_body]. *)

val schedule_proc :
  ?may_alias:(Instr.t -> Instr.t -> bool) ->
  ?latency:(Instr.t -> int) ->
  ?width:int ->
  Proc.t ->
  unit

val schedule_program :
  ?alias:(Proc.t -> Instr.t -> Instr.t -> bool) ->
  ?latency:(Instr.t -> int) ->
  ?width:int ->
  Program.t ->
  unit
(** [alias] builds a per-procedure [may_alias] oracle (typically
    [fun proc -> Bv_analysis.Alias.(may_alias (analyze proc))]). *)

val critical_path_cycles :
  ?may_alias:(Instr.t -> Instr.t -> bool) ->
  ?latency:(Instr.t -> int) ->
  Instr.t list ->
  int
(** Length in cycles of the longest dependence chain through the body
    (a lower bound on in-order execution time of the block). [may_alias]
    relaxes the store-barrier rule exactly as in {!schedule_body}, so a
    provably-disjoint store does not lengthen a load's chain — the
    cost-model advisor uses this to measure condition-slice dependence
    height without false memory edges. *)
