(** The Decomposed Branch Transformation (paper §3, Figure 5).

    For each selected branch site — block [A] ending in [cmp]+[br] with
    successors [B] (not-taken) and [C] (taken) — the pass:

    + replaces the branch with a [predict] terminator targeting two new
      resolution blocks [A'nt] (predicted not-taken) and [A't] (predicted
      taken);
    + sinks the branch's condition slice out of [A] into both resolution
      blocks (the predict depends on nothing, so [A]'s remaining work stays
      put and the slice now overlaps with hoisted work);
    + hoists the leading store-free prefix of each successor into the
      corresponding resolution block, with loads marked speculative
      (non-faulting) and destinations renamed to scratch temporaries so a
      wrong prediction cannot clobber the alternate path's live-ins;
    + places commit moves (temporary → architectural register) in a small
      block in the shadow of the resolve's fall-through — the paper's
      "hide the moves in the shadow of the resolution";
    + emits correction blocks [Correct-B]/[Correct-C] that re-execute the
      correct successor's hoisted prefix non-speculatively and jump back
      into the main flow — reached only when the resolve detects a
      misprediction;
    + lays the new blocks out hot-path-fallthrough (A, A'nt, commit, B'),
      with correction blocks cold at the end of the procedure.

    The transformed program is architecturally equivalent without any
    hardware rollback: the condition slice is path-independent (it reads
    only pre-predict state and contains no stores), and hoisted code writes
    temporaries that are committed only on the correctly predicted path.
    Property tests check equivalence under adversarial predict policies. *)

open Bv_isa
open Bv_ir

type site_report =
  { site : int;
    proc : Label.t;
    slice_size : int;
    slice_instrs : Instr.t list;
        (** the sunk condition slice (for resolution-latency estimates) *)
    hoisted_not_taken : int;  (** instructions hoisted from B into A'nt *)
    hoisted_taken : int;
    not_taken_block_size : int;  (** |B| before hoisting *)
    taken_block_size : int
  }

type result =
  { program : Program.t;  (** a transformed deep copy; input is untouched *)
    reports : site_report list;
    skipped : (int * string) list;  (** site id, reason *)
    static_instrs_before : int;
    static_instrs_after : int
  }

val default_temp_pool : Reg.t list
(** {!Bv_analysis.Hammock.scratch}, r48–r63: the scratch registers that
    hold renamed hoisted values. Programs eligible for the transformation
    must not use them. *)

val phi : site_report -> float
(** Percent of the successor blocks' instructions that were hoistable for
    this site (Table 2's PHI). *)

val alias_oracle :
  ?summaries:Bv_analysis.Summary.env -> Proc.t -> Instr.t -> Instr.t -> bool
(** The may-alias oracle the post-transform scheduling pass hands to
    {!Bv_sched.Sched.schedule_program}: {!Bv_analysis.Alias} on the
    procedure being scheduled. [summaries] feeds the alias analysis'
    [call_mod] hook so register facts survive calls that provably leave
    the base registers alone. *)

val apply :
  ?max_hoist:int ->
  ?schedule:bool ->
  ?prove:bool ->
  ?exit_live:Reg.t list ->
  ?summaries:Bv_analysis.Summary.env ->
  candidates:Select.candidate list ->
  Program.t ->
  result
(** {!rewrite} with the decomposition above at each site. Raises
    [Invalid_argument] when the program already uses
    {!default_temp_pool}. *)

(** {2 The shared rewrite}

    {!apply} and {!Assertconv.apply} run through {!rewrite}. *)

type site =
  { proc : Proc.t;
    block : Block.t;  (** [A], still ending in its branch *)
    on : bool;  (** the branch's fields *)
    src : Reg.t;
    taken : Label.t;
    not_taken : Label.t;
    id : int;
    slice : Instr.t list;  (** the condition slice, safe to sink *)
    rest : Instr.t list;  (** what stays in [A] *)
    live : Liveness.t;  (** of the procedure as it stands *)
    max_hoist : int
  }
(** A branch site that passed the set-up: its condition slice may sink
    below the predict ({!Bv_analysis.Hammock.slice_hazard}). *)

val hoist :
  site ->
  alternate:Label.t ->
  Instr.t list ->
  Instr.t list * Instr.t list * Instr.t list * Instr.t list
(** [(original prefix, speculative copy, commit moves, rest)] of a
    successor body, built from {!Bv_analysis.Hammock.hoistable_prefix}'s
    decisions: renamed destinations and the reads after them go to
    their scratch registers, loads become non-faulting, a seed move
    precedes each seeded conditional move, and one commit move per
    scratch register copies it back. [alternate] is the other successor,
    the one a wrong prediction reaches. *)

val rewrite :
  caller:string ->
  ?max_hoist:int ->
  ?schedule:bool ->
  ?prove:bool ->
  ?exit_live:Reg.t list ->
  ?summaries:Bv_analysis.Summary.env ->
  candidate:('c -> Select.candidate) ->
  (site -> 'c -> 'r) ->
  'c list ->
  Program.t ->
  Program.t * 'r list * (int * string) list
(** [rewrite ~caller ~candidate convert candidates program] refuses a
    program that already uses the scratch registers
    ({!Bv_analysis.Hammock.check_scratch_unused}, naming [caller]), then
    rewrites a deep copy. Each candidate's site is set up on the
    procedure as it stands and handed to [convert], which rewrites it in
    place; a site that fails the set-up (its terminator is not a
    conditional branch, or its slice cannot sink) is skipped with the
    reason. Returns the rewritten program, [convert]'s reports and the
    skips, in candidate order.

    [max_hoist] (default 16) caps the hoisted prefix per successor.
    [schedule] (default true) re-runs the list scheduler afterwards,
    alias-aware via {!alias_oracle}. The speculation-safety verifier
    ({!Bv_analysis.Speculation}) always runs as a post-pass and raises
    [Invalid_argument] on any error-severity diagnostic. [prove]
    (default false: it symbolically executes every cutpoint region) runs
    the translation validator ({!Bv_analysis.Equiv}) against the input
    program and raises [Invalid_argument] on any counterexample.
    [exit_live] is the calling convention: registers assumed live at
    procedure exits for the renaming analysis (default: every register —
    safe, but renames more than a compiler with knowledge of the
    convention would). [summaries] (default absent — the historical
    intra-procedural behaviour, byte-for-byte) applies the same two
    relaxations as {!Bv_analysis.Costmodel.analyze}'s summary mode —
    call-aware alias facts and the alias-checked slice store rule — and
    threads summaries into scheduling and the speculation post-pass,
    recomputing them on the rewritten program first (a rewritten callee
    writes the scratch registers, which the input program's summaries
    cannot know). *)
