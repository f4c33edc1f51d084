(** Shared mutable state of the staged timing model.

    One record carries everything the pipeline stages touch — speculative
    architectural state (registers, memory + undo log, call stack),
    front-end steering state, the fetch buffer, the scoreboard, in-flight
    instructions and the telemetry sinks. Stage modules ({!Frontend},
    {!Scoreboard}, {!Backend}, {!Spec_state}) are sets of functions over
    this record; {!Machine.run} owns only the cycle loop.

    The record is deliberately transparent: stages (and the per-stage unit
    tests) read and write fields directly, and the narrow surface of each
    stage lives in that stage's [.mli], not here.

    Allocation discipline: the steady-state cycle loop allocates nothing.
    Decode products are precomputed per pc in [static]; in-flight rows
    are recycled through a free list, each with its own preallocated
    predictor meta row; mispredict checkpoints are recycled through a
    pool and refilled in place; event values are only built when a
    subscriber is attached ([events_enabled]); the queues ({!Ring}) are
    flat arrays with mask indexing and the structural-resource trackers
    ({!Release}) flat heaps. The one remaining allocation is the
    speculative [call_stack]'s cons per call. *)

open Bv_isa
open Bv_ir
open Bv_bpred
open Bv_cache

(** A mispredict checkpoint, recycled through the [ckpts] pool and
    refilled in place by {!Spec_state.make_checkpoint}. *)
type checkpoint =
  { ck_regs : int array;
    mutable ck_undo : int;  (** absolute undo-log position *)
    mutable ck_stack : int list;
    mutable ck_ras_depth : int;
    ck_dbb : Dbb.snapshot;
    mutable ck_halted : bool
  }

(** Control-instruction kind tags for the flat [c_kind] pool column.
    Control metadata lives in parallel int arrays rather than a
    per-instruction record, so fetching a branch allocates nothing. *)

val ck_none : int

val ck_branch : int
val ck_resolve : int
val ck_ret : int

type handle = int
(** Name of an in-flight instruction: a row index into the [i_*]
    struct-of-arrays pool below. Handles (not records) flow through the
    queues and the free list, so the steady-state loop moves immediates
    only — no write barriers, nothing for the major GC to trace. *)

(** Functional-unit classes as indices into the per-cycle [fu_left]
    counters. *)

val fu_int : int

val fu_fp : int
val fu_mem : int
val fu_branch : int
val fu_none : int

(** Per-cycle stall reason written by the scoreboard (exactly one per
    zero-issue cycle) or by a stall skip for its whole stretch, consumed
    by {!account_cycles}. *)

val stall_none : int

val stall_frontend : int
val stall_operand : int
val stall_fu : int
val stall_mem : int

(** What last armed [fetch_stall_until] — splits front-end-empty cycles
    into icache / redirect / DBB shadows. *)

val fsrc_none : int

val fsrc_icache : int
val fsrc_redirect : int
val fsrc_dbb : int

(** What the runahead sweep did for an in-flight memory entry when it
    started no fill: [pf_none], nothing yet (a sweep may still look at
    it); [pf_in_l1], it found the line in L1 (no sweep looks again).
    Neither caps the load's latency at issue. *)

val pf_none : int

val pf_in_l1 : int

(** Per-pc decode products, computed once per {!create}: the fetch path
    never recomputes [Instr.defs]/[Instr.uses]/[Instr.fu_class] or the
    config latency per dynamic instruction. *)
type static_info =
  { s_fu : int;  (** {!fu_int} .. {!fu_none} *)
    s_dst : int;  (** register index, -1 if none *)
    s_uses : int array;  (** register indices, in [Instr.uses] order *)
    s_use0 : int;
    s_use1 : int;
    s_use2 : int;
        (** [s_uses] padded to three slots with the sentinel [Reg.count]
            (no instruction reads more than three registers), so the
            issue check compares three fields with no loop *)
    s_latency : int;  (** base issue latency under the run's config *)
    s_mem_kind : int;  (** 0 = not memory, 1 = load, 2 = store *)
    s_is_halt : bool;
    s_target : int;
        (** pre-resolved label target pc (jump/call/branch/predict/resolve);
            -1 when the instruction has no label. The fetch path never does
            a label-table lookup. *)
    s_slot : int
        (** branch/resolve: the site's {!Stats.slot} in this run's stats;
            -1 for every other instruction (and for negative site ids) *)
  }

val imax : int -> int -> int
(** Monomorphic int max/min: the hot path must not call the polymorphic
    [Stdlib.max]/[Stdlib.min] (each is a closure call into [compare]). *)

val imin : int -> int -> int

type event =
  | Fetched of { cycle : int; seq : int; pc : int; instr : Instr.t }
  | Issued of { cycle : int; seq : int }
  | Completed of { cycle : int; seq : int; mispredicted : bool }
  | Squashed of { cycle : int; seq : int }
  | Redirected of { cycle : int; after_seq : int; new_pc : int }

(** Power-of-two circular FIFO of int handles with mask indexing.
    Monomorphic on purpose: the [int array] backing store compiles to
    unboxed stores — no [caml_modify] write barrier at two pushes per
    simulated instruction. [limit] caps {!is_full} (the fetch buffer's
    configured size); the backing array doubles on demand, so an
    unlimited ring is a growable deque — the retire queue uses exactly
    that. *)
module Ring : sig
  type t

  val create : ?limit:int -> int -> t
  (** [create n] sizes the backing array to the next power of two ≥ [n].
      [limit] defaults to unbounded. *)

  val length : t -> int
  val capacity : t -> int
  (** The logical [limit]. *)

  val is_full : t -> bool
  val push : t -> int -> unit
  val front : t -> int
  (** Head entry; raises [Invalid_argument] when empty. *)

  val pop : t -> int
  (** Remove and return the head; raises [Invalid_argument] when empty. *)

  val get : t -> int -> int
  (** [get t k] is the k-th entry from the head (no bounds check beyond
      the mask). *)

  val drop_tail : t -> int -> unit
  (** Shorten by [n] entries at the tail. *)
end

(** MSHR and store-buffer occupancy: a binary min-heap of release
    cycles. [schedule] pushes an entry's release cycle, [drain ~now]
    pops every entry released at or before [now], [occupancy] is the
    heap's size and [next_release] its top. After [drain ~now],
    [occupancy] counts exactly the entries with release cycle > [now].
    Each entry costs one push and one pop, O(log n) each, so a drain
    after a stall skip of any length costs only the entries it
    releases. *)
module Release : sig
  type t

  val create : unit -> t
  (** An empty heap; its array grows to the peak occupancy. *)

  val occupancy : t -> int
  val schedule : t -> at:int -> unit
  val drain : t -> now:int -> unit

  val next_release : t -> int
  (** The earliest release cycle of an occupied entry ([max_int] when
      none is occupied). After [drain ~now] it is above [now]. *)
end

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The data memory, one OCaml [int] per 8-byte word, out of the heap
    the major GC marks. *)

type t =
  { cfg : Config.t;
    image : Layout.image;
    code : Instr.t array;
    code_len : int;
    static : static_info array;  (** indexed by pc, same length as [code] *)
    stats : Stats.t;
    hier : Hierarchy.t;
    predictor : Predictor.t;
    btb : Btb.t;
    ras : Ras.t;
    dbb : Dbb.t;
    regs : int array;
    mem : words;
        (** filled from the program's segments at {!create}, zero
            elsewhere ({!Bv_ir.Program.initial_memory}'s image) *)
    mem_words : int;
    mutable call_stack : int list;
    mutable spec_halted : bool;
    mutable log_addr : int array;
    mutable log_val : int array;
    mutable log_len : int;
    mutable log_base : int;
    mutable live_checkpoints : int;
    mutable now : int;
    mutable skipped_cycles : int;
        (** cycles fast-forwarded by the stall skip rather than stepped *)
    fbuf : Ring.t;
    fbuf_mem : Ring.t;
        (** the loads and stores of [fbuf], in seq order: the runahead
            sweep's index. Kept only under runahead (empty otherwise):
            pushed at enqueue, popped when the head issues one, truncated
            with [fbuf] by a flush. *)
    pending : Ring.t;
        (** issued-but-incomplete instructions, in seq order *)
    mutable next_complete : int;
        (** lower bound on the earliest [complete_cycle] in [pending]
            (stale low is fine; the backend skips scans below it) *)
    ready : int array;
        (** per register, the cycle its latest producer completes; entry
            [Reg.count] is the padded use slots' sentinel, never written
            and so always 0 *)
    mutable park_h : handle;
        (** operand-stall parking: the issue head known to be blocked on
            operands until [park_until] (-1 when nothing is parked).
            Guarded by [park_seq] — handles are reused, seqs never are. *)
    mutable park_seq : int;
    mutable park_until : int;
    mutable sweep_bound : int;
        (** conservative lower bound on the earliest cycle the runahead
            prefetch sweep could act (min readiness over unprefetched
            entries in [fbuf_mem]; 0 = unknown, walk). Maintained by
            the scoreboard sweep, folded down at fetch, reset by
            {!rebuild_scoreboard}; a parked stall skip stops at it. *)
    mutable fetch_pc : int;
    mutable fetch_stall_until : int;
    mutable current_line : int;
    line_shift : int;  (** log2 of the I-cache line size in instructions *)
    mshr_release : Release.t;
    store_release : Release.t;
    fu_left : int array;
        (** per-cycle FU availability, indexed by {!fu_int} .. {!fu_none};
            refilled from the config at the top of each issue pass *)
    mutable seq : int;
    mutable finished : bool;
    mutable stores_retired : int;
    mutable shadow_fetches : int;
    mutable i_seq : int array;
        (** In-flight pool: parallel int arrays indexed by {!handle},
            grown together on demand, so a field refill touches no
            pointers. *)
    mutable i_pc : int array;
    mutable i_fetch_cycle : int array;
    mutable i_addr : int array;
        (** load/store effective address, captured at fetch *)
    mutable i_complete_cycle : int array;
    mutable i_squashed : int array;  (** 0 / 1 *)
    mutable i_prefetch : int array;
        (** the arrival cycle of the entry's runahead prefetch, which
            caps its latency at issue; {!pf_none} or {!pf_in_l1} when
            no fill was started *)
    mutable c_kind : int array;
        (** Control metadata columns, valid while [c_kind] is not
            {!ck_none}: the row's enqueuer writes every field it later
            reads; {!recycle_inflight} resets the discriminator and
            [c_site]. *)
    mutable c_mispredict : int array;  (** 0 / 1 *)
    mutable c_redirect : int array;
        (** correct-path pc, used on mispredict *)
    mutable c_site : int array;
        (** branch/resolve site's stats slot ([s_slot]); -1 otherwise
            (read without a kind guard on the issue path) *)
    mutable c_actual : int array;  (** actual direction, 0 / 1 *)
    mutable c_dbb_slot : int array;  (** -1 when none *)
    meta_words : int;  (** the predictor's meta row width *)
    mutable c_meta : int array;
        (** Predictor meta storage ({!Bv_bpred.Predictor}): one row per
            handle, [h]'s at [h * meta_words]. A branch predicts into its
            own row at fetch and trains from it at completion; a resolve
            trains from the row of the DBB slot it claimed instead. *)
    mutable c_ckpt : int array;
        (** index into [ckpts] while the row holds a live checkpoint (a
            mispredicting control instruction), else -1 *)
    mutable pool_next : handle;  (** first never-allocated row *)
    mutable free_pool : int array;  (** recycled handles (a stack) *)
    mutable free_len : int;
    mutable comp_buf : int array;  (** per-cycle completion scratch *)
    mutable comp_len : int;
    mutable ckpts : checkpoint array;
        (** Checkpoint pool, grown to the run's peak of live checkpoints;
            the free ones are indexed by the stack
            [ck_free.(0 .. ck_free_len - 1)]. *)
    mutable ck_free : int array;
    mutable ck_free_len : int;
    oracle_scratch : int array;
    oracle_needed : bool;
        (** only the perfect predictor reads [~outcome] at predict time,
            so the oracle walk is skipped for every other kind *)
    events_enabled : bool;
        (** [false]: no event values are ever constructed *)
    on_event : event -> unit;
    acct_enabled : bool;
        (** Cycle accounting, gated like [events_enabled]: when [false]
            the classifier never runs and only the cheap unconditional
            int stores below remain on the hot path. *)
    acct : Acct.t;  (** zero-length tables when disabled *)
    mutable cycle_stall : int;
        (** this cycle's stall reason, {!stall_none} .. {!stall_mem} *)
    mutable fetch_stall_src : int;  (** {!fsrc_none} .. {!fsrc_dbb} *)
    mutable in_recovery : bool;
        (** set at flush, cleared by the first subsequent issue: the
            refill shadow charged to [recovery_pc] *)
    mutable recovery_pc : int;
    ready_src_load : int array;
        (** per register: 1 when the producer that last raised [ready]
            was a load (splits operand stalls into memory vs base) *)
    mutable fetch_frozen : bool
        (** sampled-mode drain: the front end fetches nothing while set,
            so the pipeline empties before a functional fast-forward
            hand-off; never set on normal runs *)
  }

val create :
  config:Config.t ->
  ?on_event:(event -> unit) ->
  ?acct:Acct.t ->
  Layout.image ->
  t
(** Fresh machine state at cycle 0, fetch steered at the image entry.
    Omitting [on_event] disables event construction entirely
    ([events_enabled = false]); omitting [acct] disables cycle accounting
    the same way. A provided [acct] must be sized for the image's code
    ({!Acct.create} on [image.code]) — raises [Invalid_argument]
    otherwise. *)

val alloc_inflight : t -> handle
(** Pop a recycled handle off the free list (or claim a fresh pool row,
    growing the pool if needed); the caller overwrites every field. *)

val recycle_inflight : t -> handle -> unit
(** Return a handle to the free list. The caller must guarantee it is no
    longer reachable from the fetch buffer, the pending deque or the
    completion scratch — a double recycle would hand the same row out
    twice — and that its checkpoint, if any, was released
    ({!Spec_state.release_checkpoint}). Resets [c_kind] and [c_site]. *)

val compact_pending : t -> unit
(** Drop every completed ([complete_cycle <= now]) or squashed entry from
    [pending], keeping the rest in order. Allocation-free. *)

val rebuild_scoreboard : t -> unit
(** Recompute every register's ready cycle from the surviving in-flight
    producers (squash repair). *)

val line_of : t -> int -> int
(** I-cache line index of a pc. *)

val operand_value : t -> Instr.operand -> int
(** Read an operand against the speculative register file. *)

val account_cycles : t -> int -> unit
(** [account_cycles st n] charges each of the [n] cycles starting at
    [now] to exactly one {!Acct} component (call only when
    [acct_enabled], after issue and fetch, before [now] advances). A
    stepped cycle passes 1; a stall skip passes its length after setting
    [cycle_stall] for the stretch, and the split inside it is exact
    because the component can change only at [fetch_stall_until] or at
    the issue head's latest load-produced operand. Conservation holds by
    construction: [n] cycles charged per call. Recovery cycles are
    additionally attributed to the mispredicting pc. *)
