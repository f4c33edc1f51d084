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

    Allocation discipline: the steady-state cycle loop allocates nothing
    per instruction. Decode products are precomputed per pc in [static];
    inflight records are recycled through a free list; event values are
    only built when a subscriber is attached ([events_enabled]); and the
    structural-resource trackers ({!Release}) and queues ({!Ring}) are
    flat arrays with mask indexing. *)

open Bv_isa
open Bv_ir
open Bv_bpred
open Bv_cache

type checkpoint =
  { ck_regs : int array;
    ck_undo : int;  (** absolute undo-log position *)
    ck_stack : int list;
    ck_ras_depth : int;
    ck_dbb : Dbb.snapshot;
    ck_halted : bool
  }

(** Control-instruction kind tags for the flat [c_kind] pool column.
    Control metadata lives in parallel int arrays rather than a
    per-instruction record, so fetching a branch allocates nothing. *)

val ck_none : int

val ck_branch : int
val ck_resolve : int
val ck_ret : int

val no_ctrl_meta : Predictor.meta
(** Sentinel for "no predictor metadata" in the [c_meta] column,
    distinguished by {e physical} equality ([==]); deliberately non-empty
    so a predictor's legitimate empty meta can never alias it. *)

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
    zero-issue cycle), consumed by {!account_cycle}. *)

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

(** Per-pc decode products, computed once per {!create}: the fetch path
    never recomputes [Instr.defs]/[Instr.uses]/[Instr.fu_class] or the
    config latency per dynamic instruction. *)
type static_info =
  { s_fu : int;  (** {!fu_int} .. {!fu_none} *)
    s_dst : int;  (** register index, -1 if none *)
    s_uses : int array;  (** register indices, in [Instr.uses] order *)
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

  val iter : t -> (int -> unit) -> unit

  val drop_tail : t -> int -> unit
  (** Shorten by [n] entries at the tail. *)

  val truncate_tail :
    t -> keep:(int -> bool) -> removed:(int -> unit) -> unit
  (** Remove the maximal tail suffix failing [keep], calling [removed] on
      each dropped entry in ring (FIFO) order. *)

  val filter_in_place : t -> keep:(int -> bool) -> unit
  (** Order-preserving in-place compaction. *)
end

(** Release-time calendar giving O(1) structural-resource occupancy
    (MSHRs, store buffer): [schedule] an entry's release cycle, [drain]
    once per cycle, read [occupancy]. After [drain ~now], [occupancy]
    counts exactly the entries with release cycle > [now]. *)
module Release : sig
  type t

  val create : horizon:int -> t
  (** [horizon] must bound the largest latency ever scheduled. *)

  val occupancy : t -> int
  val schedule : t -> at:int -> unit
  val drain : t -> now:int -> unit
end

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
    mem : int array;
    mem_words : int;
    mutable call_stack : int list;
    mutable spec_halted : bool;
    mutable log_addr : int array;
    mutable log_val : int array;
    mutable log_len : int;
    mutable log_base : int;
    mutable live_checkpoints : int;
    mutable now : int;
    fbuf : Ring.t;
    pending : Ring.t;
        (** issued-but-incomplete instructions, in seq order *)
    mutable next_complete : int;
        (** lower bound on the earliest [complete_cycle] in [pending]
            (stale low is fine; the backend skips scans below it) *)
    ready : int array;
    mutable park_h : handle;
        (** operand-stall parking: the issue head known to be blocked on
            operands until [park_until] (-1 when nothing is parked).
            Guarded by [park_seq] — handles are reused, seqs never are. *)
    mutable park_seq : int;
    mutable park_until : int;
    mutable sweep_bound : int;
        (** conservative lower bound on the earliest cycle the runahead
            prefetch sweep could act (min readiness over unprefetched
            memory entries in [fbuf]; 0 = unknown, walk). Maintained by
            the scoreboard sweep, folded down at fetch, reset by
            {!rebuild_scoreboard}. *)
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
        (** In-flight pool: parallel arrays indexed by {!handle}, grown
            together on demand. All-int except [c_meta] and [c_ckpt]
            (touched only by control instructions), so a field refill
            touches no pointers. *)
    mutable i_pc : int array;
    mutable i_fetch_cycle : int array;
    mutable i_addr : int array;
        (** load/store effective address, captured at fetch *)
    mutable i_complete_cycle : int array;
    mutable i_squashed : int array;  (** 0 / 1 *)
    mutable i_prefetch : int array;
        (** runahead-prefetch arrival cycle; -1 when none *)
    mutable c_kind : int array;
        (** Control metadata columns, valid while [c_kind] is not
            {!ck_none}: the row's enqueuer writes every field it later
            reads; {!recycle_inflight} resets the discriminator, the
            pointer columns and [c_site]. *)
    mutable c_mispredict : int array;  (** 0 / 1 *)
    mutable c_redirect : int array;
        (** correct-path pc, used on mispredict *)
    mutable c_site : int array;
        (** branch/resolve site's stats slot ([s_slot]); -1 otherwise
            (read without a kind guard on the issue path) *)
    mutable c_meta_pc : int array;
        (** pc whose predictor entry to train *)
    mutable c_actual : int array;  (** actual direction, 0 / 1 *)
    mutable c_dbb_slot : int array;  (** -1 when none *)
    mutable c_meta : Predictor.meta array;
        (** {!no_ctrl_meta} when none (compare with [==]) *)
    mutable c_ckpt : checkpoint option array;  (** present iff mispredict *)
    mutable pool_next : handle;  (** first never-allocated row *)
    mutable free_pool : int array;  (** recycled handles (a stack) *)
    mutable free_len : int;
    mutable comp_buf : int array;  (** per-cycle completion scratch *)
    mutable comp_len : int;
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
    twice. Resets [c_kind], [c_site] and the pointer columns ([c_meta],
    [c_ckpt]). *)

val rebuild_scoreboard : t -> unit
(** Recompute every register's ready cycle from the surviving in-flight
    producers (squash repair). *)

val line_of : t -> int -> int
(** I-cache line index of a pc. *)

val operand_value : t -> Instr.operand -> int
(** Read an operand against the speculative register file. *)

val account_cycle : t -> unit
(** Charge the cycle just simulated to exactly one {!Acct} component
    (call once per cycle, after issue and fetch, only when
    [acct_enabled]). Conservation holds by construction: one increment
    per call. Recovery cycles are additionally attributed to the
    mispredicting pc. *)
