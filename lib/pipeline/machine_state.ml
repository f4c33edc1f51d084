open Bv_isa
open Bv_ir
open Bv_bpred
open Bv_cache

type checkpoint =
  { ck_regs : int array;
    ck_undo : int;  (* absolute undo-log position *)
    ck_stack : int list;
    ck_ras_depth : int;
    ck_dbb : Dbb.snapshot;
    ck_halted : bool
  }

(* Control-instruction kinds, as int tags: control metadata lives in flat
   pool arrays (the [c_*] fields of [t]) rather than a per-instruction
   record, so fetching a branch allocates nothing. *)
let ck_none = 0
let ck_branch = 1
let ck_resolve = 2
let ck_ret = 3

(* Sentinel for "no predictor metadata", distinguished by physical
   equality: deliberately non-empty so it can never be confused with a
   predictor's legitimate empty meta (all zero-length arrays share one
   representation). *)
let no_ctrl_meta : Predictor.meta = [| min_int |]

(* In-flight instructions live in a struct-of-arrays pool and are named
   by an int handle (see the [i_*] fields of [t]): the queues and the
   free list then hold immediates only, so pushing an instruction through
   the pipeline costs no GC write barriers and leaves nothing for the
   major collector to trace. Decode products (opcode class, uses, dst,
   base latency) live in the per-pc [static] table, reached through
   [i_pc]. *)
type handle = int

(* Functional-unit classes as indices into the per-cycle [fu_left]
   counters: 0 = int, 1 = fp, 2 = mem, 3 = branch, 4 = none. *)
let fu_int = 0
let fu_fp = 1
let fu_mem = 2
let fu_branch = 3
let fu_none = 4

(* Per-pc decode products, computed once per [create] so the fetch path
   never recomputes defs/uses/FU class/latency per dynamic instruction. *)
type static_info =
  { s_fu : int;  (* [fu_int] .. [fu_none] *)
    s_dst : int;  (* register index, -1 if none *)
    s_uses : int array;  (* register indices, in Instr.uses order *)
    s_latency : int;  (* base issue latency under the run's config *)
    s_mem_kind : int;  (* 0 = not memory, 1 = load, 2 = store *)
    s_is_halt : bool;
    s_target : int;  (* resolved label target pc; -1 when none *)
    s_slot : int  (* branch/resolve: the site's Stats slot; -1 otherwise *)
  }

let[@inline] imax (a : int) (b : int) = if a >= b then a else b
let[@inline] imin (a : int) (b : int) = if a <= b then a else b

(* Per-cycle stall reason for the accounting classifier, written by the
   scoreboard (one store per cycle): which single reason blocked issue
   when nothing issued. *)
let stall_none = 0  (* at least one instruction issued *)
let stall_frontend = 1  (* fetch buffer empty / front-stage fill *)
let stall_operand = 2
let stall_fu = 3
let stall_mem = 4

(* What last armed [fetch_stall_until], for splitting front-end-empty
   cycles (written unconditionally by the frontend; read only when
   accounting is on). *)
let fsrc_none = 0
let fsrc_icache = 1
let fsrc_redirect = 2
let fsrc_dbb = 3

type event =
  | Fetched of { cycle : int; seq : int; pc : int; instr : Instr.t }
  | Issued of { cycle : int; seq : int }
  | Completed of { cycle : int; seq : int; mispredicted : bool }
  | Squashed of { cycle : int; seq : int }
  | Redirected of { cycle : int; after_seq : int; new_pc : int }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* Power-of-two circular FIFO of int handles with mask indexing.
   Monomorphic on purpose: an [int array] backing store compiles to
   unboxed stores (no [caml_modify] write barrier, no float-array
   dynamic dispatch), which matters at two pushes per simulated
   instruction. [limit] is the logical capacity [is_full] reports; the
   backing array doubles on demand, so an unlimited ring
   ([limit = max_int]) is a growable deque — the retire queue uses
   exactly that. *)
module Ring = struct
  type t =
    { mutable buf : int array;
      mutable mask : int;
      mutable head : int;
      mutable len : int;
      limit : int
    }

  let create ?(limit = max_int) capacity =
    let cap = pow2_at_least (max 1 capacity) 1 in
    { buf = Array.make cap (-1); mask = cap - 1; head = 0; len = 0; limit }

  let[@inline] length t = t.len
  let capacity t = t.limit
  let[@inline] is_full t = t.len >= t.limit

  let[@inline] get t k = t.buf.((t.head + k) land t.mask)

  let grow t =
    let n = Array.length t.buf in
    let buf = Array.make (2 * n) (-1) in
    for k = 0 to t.len - 1 do
      buf.(k) <- get t k
    done;
    t.buf <- buf;
    t.mask <- (2 * n) - 1;
    t.head <- 0

  let[@inline] push t x =
    assert (not (is_full t));
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) land t.mask) <- x;
    t.len <- t.len + 1

  let[@inline] front t =
    if t.len = 0 then invalid_arg "Ring.front: empty";
    t.buf.(t.head)

  let[@inline] pop t =
    let x = front t in
    t.head <- (t.head + 1) land t.mask;
    t.len <- t.len - 1;
    x

  let iter t f =
    for k = 0 to t.len - 1 do
      f (get t k)
    done

  let drop_tail t n =
    assert (n <= t.len);
    t.len <- t.len - n

  (* Remove the maximal tail suffix failing [keep], calling [removed] on
     each dropped entry in ring (FIFO) order. *)
  let truncate_tail t ~keep ~removed =
    let cut = ref t.len in
    while !cut > 0 && not (keep (get t (!cut - 1))) do
      decr cut
    done;
    for k = !cut to t.len - 1 do
      removed (get t k)
    done;
    t.len <- !cut

  (* In-place compaction preserving order. *)
  let filter_in_place t ~keep =
    let w = ref 0 in
    for r = 0 to t.len - 1 do
      let x = get t r in
      if keep x then begin
        t.buf.((t.head + !w) land t.mask) <- x;
        incr w
      end
    done;
    t.len <- !w
end

(* Release-time calendar for MSHR / store-buffer occupancy: O(1) schedule,
   O(1) amortised drain, O(1) occupancy query — replaces the lists that
   were List.filter-compacted every cycle and List.length-counted on
   every issue attempt. [slots.(c land mask)] counts entries released at
   cycle [c]; [horizon] must bound the largest schedulable latency. *)
module Release = struct
  type t =
    { slots : int array;
      mask : int;
      mutable occupancy : int;
      mutable cursor : int  (* next cycle to drain *)
    }

  let create ~horizon =
    let cap = pow2_at_least (horizon + 2) 1 in
    { slots = Array.make cap 0; mask = cap - 1; occupancy = 0; cursor = 0 }

  let[@inline] occupancy t = t.occupancy

  let[@inline] schedule t ~at =
    assert (at >= t.cursor && at - t.cursor <= t.mask);
    t.slots.(at land t.mask) <- t.slots.(at land t.mask) + 1;
    t.occupancy <- t.occupancy + 1

  (* After [drain t ~now], [occupancy] counts exactly the entries with
     release cycle > now (the old [List.filter (fun c -> c > now)]). *)
  let[@inline] drain t ~now =
    while t.cursor <= now do
      let i = t.cursor land t.mask in
      t.occupancy <- t.occupancy - t.slots.(i);
      t.slots.(i) <- 0;
      t.cursor <- t.cursor + 1
    done
end

type t =
  { cfg : Config.t;
    image : Layout.image;
    code : Instr.t array;
    code_len : int;
    static : static_info array;  (* indexed by pc, same length as [code] *)
    stats : Stats.t;
    hier : Hierarchy.t;
    predictor : Predictor.t;
    btb : Btb.t;
    ras : Ras.t;
    dbb : Dbb.t;
    (* --- speculative architectural state ------------------------------ *)
    regs : int array;
    mem : int array;
    mem_words : int;
    mutable call_stack : int list;
    mutable spec_halted : bool;
    (* Undo log for speculative stores; positions are absolute counts. *)
    mutable log_addr : int array;
    mutable log_val : int array;
    mutable log_len : int;
    mutable log_base : int;
    mutable live_checkpoints : int;
    (* --- timing state ------------------------------------------------- *)
    mutable now : int;
    fbuf : Ring.t;
    (* Issued-but-incomplete instructions, in seq order: a FIFO deque —
       push at tail on issue, compact on completion, truncate on flush. *)
    pending : Ring.t;
    (* Lower bound on the earliest complete_cycle in [pending] (may be
       stale low after a flush, never high): the backend skips the
       completion scan entirely while [now] is below it. *)
    mutable next_complete : int;
    ready : int array;
    (* Operand-stall parking: while the issue head is blocked on operands,
       nothing younger can issue (in-order, head-of-line), so the head's
       readiness cycle cannot change until it issues — the scoreboard
       skips the full head re-check below [park_until]. Guarded by seq
       (never reused), so stale parking after a recycle is inert; a flush
       can only remove already-completed or wrong-path producers, neither
       of which moves a surviving head's readiness, so the bound survives
       flushes too. *)
    mutable park_h : handle;  (* -1 when nothing is parked *)
    mutable park_seq : int;
    mutable park_until : int;
    (* Conservative lower bound on the earliest cycle the runahead
       prefetch sweep could act: the min readiness over unprefetched
       memory entries in [fbuf]. Folded down at fetch, recomputed by the
       sweep itself, reset to 0 (= unknown, walk) whenever a flush can
       lower [ready] ({!rebuild_scoreboard}). While [now] < bound, the
       per-cycle sweep walk is provably a no-op and is skipped. *)
    mutable sweep_bound : int;
    mutable fetch_pc : int;
    mutable fetch_stall_until : int;
    mutable current_line : int;
    line_shift : int;  (* log2 of the I-cache line size in instructions *)
    mshr_release : Release.t;
    store_release : Release.t;
    (* Per-cycle FU availability, indexed by [fu_int] .. [fu_none] and
       refilled from the config at the top of each issue pass — a flat
       array instead of per-cycle ref cells. *)
    fu_left : int array;
    mutable seq : int;
    mutable finished : bool;
    mutable stores_retired : int;
    mutable shadow_fetches : int;
    (* --- in-flight pool (struct of arrays, indexed by handle) ---------- *)
    (* Parallel arrays grown together by [alloc_inflight]; a handle is a
       row index. Everything is an int except [c_meta] and [c_ckpt],
       which only control instructions touch — so the per-instruction
       field refill touches no pointers at all. *)
    mutable i_seq : int array;
    mutable i_pc : int array;
    mutable i_fetch_cycle : int array;
    mutable i_addr : int array;  (* load/store effective address, at fetch *)
    mutable i_complete_cycle : int array;
    mutable i_squashed : int array;  (* 0 / 1 *)
    mutable i_prefetch : int array;  (* prefetch arrival cycle; -1: none *)
    (* Control metadata, valid while [c_kind] is not [ck_none]. A row's
       enqueuer writes every field it later reads; [recycle_inflight]
       resets only the discriminator, the pointers and [c_site] (read
       unguarded on the issue path). *)
    mutable c_kind : int array;  (* ck_none / ck_branch / ck_resolve / ck_ret *)
    mutable c_mispredict : int array;  (* 0 / 1 *)
    mutable c_redirect : int array;  (* correct-path pc, used on mispredict *)
    mutable c_site : int array;  (* branch/resolve stats slot, -1 otherwise *)
    mutable c_meta_pc : int array;  (* pc whose predictor entry to train *)
    mutable c_actual : int array;  (* actual direction, 0 / 1 *)
    mutable c_dbb_slot : int array;  (* -1 when none *)
    mutable c_meta : Predictor.meta array;  (* [no_ctrl_meta] when none *)
    mutable c_ckpt : checkpoint option array;  (* present iff mispredict *)
    mutable pool_next : handle;  (* first never-allocated row *)
    mutable free_pool : int array;  (* recycled handles (a stack) *)
    mutable free_len : int;
    mutable comp_buf : int array;  (* per-cycle completion scratch *)
    mutable comp_len : int;
    oracle_scratch : int array;  (* predict-oracle register scratch *)
    (* Only the perfect predictor reads [~outcome] at predict time (the
       interface contract: every other predictor must ignore it), so the
       side-effect-free oracle walk over the resolution slice is skipped
       entirely for real predictors. *)
    oracle_needed : bool;
    (* --- telemetry ----------------------------------------------------- *)
    events_enabled : bool;  (* false: no event values are ever built *)
    on_event : event -> unit;
    (* --- cycle accounting ---------------------------------------------- *)
    (* Gated like [events_enabled]: with [acct_enabled = false] the
       classifier never runs and the only residue on the hot path is the
       cheap unconditional int stores below ([cycle_stall],
       [fetch_stall_src], [ready_src_load]). *)
    acct_enabled : bool;
    acct : Acct.t;  (* zero-length tables when disabled *)
    mutable cycle_stall : int;  (* stall_none .. stall_mem, this cycle *)
    mutable fetch_stall_src : int;  (* fsrc_none .. fsrc_dbb *)
    mutable in_recovery : bool;
        (* set at flush, cleared by the first subsequent issue: the refill
           shadow charged to [recovery_pc] *)
    mutable recovery_pc : int;  (* pc of the last mispredicting instr *)
    ready_src_load : int array;
        (* per register: 1 when the producer that last raised [ready] was
           a load — splits operand stalls into memory vs dependency *)
    (* Sampled-mode drain: while set, the front end fetches nothing —
       the pipeline empties so architectural state can be handed to the
       functional fast-forward executor. Never set on normal runs. *)
    mutable fetch_frozen : bool
  }

(* The site id a branch or resolve records its per-site stats under;
   -1 (never recorded) for everything else. *)
let site_of = function
  | Instr.Branch { id; _ } | Instr.Resolve { id; _ } when id >= 0 -> id
  | _ -> -1

let static_of (cfg : Config.t) image stats instr =
  let dst =
    match Instr.defs instr with r :: _ -> Reg.index r | [] -> -1
  in
  let latency =
    match instr with
    | Instr.Alu { op = Instr.Mul; _ } -> cfg.Config.mul_latency
    | Instr.Alu _ -> cfg.Config.alu_latency
    | Instr.Fpu _ -> cfg.Config.fpu_latency
    | _ -> 1
  in
  let mem_kind =
    match instr with Instr.Load _ -> 1 | Instr.Store _ -> 2 | _ -> 0
  in
  let target =
    match instr with
    | Instr.Jump l
    | Instr.Call l
    | Instr.Branch { target = l; _ }
    | Instr.Predict { target = l; _ }
    | Instr.Resolve { target = l; _ } ->
      Layout.resolve image l
    | _ -> -1
  in
  { s_fu =
      (match Instr.fu_class instr with
      | Instr.Fu_int -> fu_int
      | Instr.Fu_fp -> fu_fp
      | Instr.Fu_mem -> fu_mem
      | Instr.Fu_branch -> fu_branch
      | Instr.Fu_none -> fu_none);
    s_dst = dst;
    s_uses = Array.of_list (List.map Reg.index (Instr.uses instr));
    s_latency = latency;
    s_mem_kind = mem_kind;
    s_is_halt = instr = Instr.Halt;
    s_target = target;
    s_slot = Stats.slot stats (site_of instr)
  }

let create ~config ?on_event ?acct image =
  let cfg : Config.t = config in
  let code = image.Layout.code in
  (match acct with
  | Some a when Acct.length a <> Array.length code ->
    invalid_arg "Machine_state.create: acct tables sized for different code"
  | _ -> ());
  let mem = Program.initial_memory image.Layout.program in
  let c = cfg.Config.cache in
  let horizon =
    c.Hierarchy.l1_latency + c.Hierarchy.l2_latency + c.Hierarchy.l3_latency
    + c.Hierarchy.mem_latency
  in
  let stats =
    Stats.create
      ~sites:
        (Array.of_list
           (Array.fold_left
              (fun acc i -> match site_of i with -1 -> acc | s -> s :: acc)
              [] code))
  in
  { cfg;
    image;
    code;
    code_len = Array.length code;
    static = Array.map (static_of cfg image stats) code;
    stats;
    hier = Hierarchy.create ~config:cfg.Config.cache ();
    predictor = Kind.create cfg.Config.predictor;
    btb = Btb.create ~entries:cfg.Config.btb_entries ();
    ras = Ras.create ~entries:cfg.Config.ras_entries ();
    dbb = Dbb.create ~entries:cfg.Config.dbb_entries;
    regs = Array.make Reg.count 0;
    mem;
    mem_words = Array.length mem;
    call_stack = [];
    spec_halted = false;
    log_addr = Array.make 1024 0;
    log_val = Array.make 1024 0;
    log_len = 0;
    log_base = 0;
    live_checkpoints = 0;
    now = 0;
    fbuf = Ring.create ~limit:cfg.Config.fetch_buffer cfg.Config.fetch_buffer;
    pending = Ring.create 64;
    next_complete = max_int;
    ready = Array.make Reg.count 0;
    park_h = -1;
    park_seq = -1;
    park_until = 0;
    sweep_bound = 0;
    fetch_pc = image.Layout.entry;
    fetch_stall_until = 0;
    current_line = -1;
    line_shift =
      (let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
       log2 c.Hierarchy.line_bytes 0 - 2);
    mshr_release = Release.create ~horizon;
    store_release = Release.create ~horizon;
    fu_left = Array.make 5 0;
    seq = 0;
    finished = false;
    stores_retired = 0;
    shadow_fetches = 0;
    i_seq = Array.make 64 0;
    i_pc = Array.make 64 0;
    i_fetch_cycle = Array.make 64 0;
    i_addr = Array.make 64 0;
    i_complete_cycle = Array.make 64 max_int;
    i_squashed = Array.make 64 0;
    i_prefetch = Array.make 64 (-1);
    c_kind = Array.make 64 ck_none;
    c_mispredict = Array.make 64 0;
    c_redirect = Array.make 64 0;
    c_site = Array.make 64 (-1);
    c_meta_pc = Array.make 64 0;
    c_actual = Array.make 64 0;
    c_dbb_slot = Array.make 64 (-1);
    c_meta = Array.make 64 no_ctrl_meta;
    c_ckpt = Array.make 64 None;
    pool_next = 0;
    free_pool = Array.make 64 0;
    free_len = 0;
    comp_buf = Array.make 64 0;
    comp_len = 0;
    oracle_scratch = Array.make Reg.count 0;
    oracle_needed = (cfg.Config.predictor = Kind.Perfect);
    events_enabled = Option.is_some on_event;
    on_event = (match on_event with Some f -> f | None -> fun _ -> ());
    acct_enabled = Option.is_some acct;
    acct = (match acct with Some a -> a | None -> Acct.create [||]);
    cycle_stall = stall_none;
    fetch_stall_src = fsrc_none;
    in_recovery = false;
    recovery_pc = -1;
    ready_src_load = Array.make Reg.count 0;
    fetch_frozen = false
  }

(* ---- inflight pool ---------------------------------------------------- *)

let grow_pool st =
  let n = Array.length st.i_seq in
  let g a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  st.i_seq <- g st.i_seq;
  st.i_pc <- g st.i_pc;
  st.i_fetch_cycle <- g st.i_fetch_cycle;
  st.i_addr <- g st.i_addr;
  st.i_complete_cycle <- g st.i_complete_cycle;
  st.i_squashed <- g st.i_squashed;
  st.i_prefetch <- g st.i_prefetch;
  st.c_kind <- g st.c_kind;
  st.c_mispredict <- g st.c_mispredict;
  st.c_redirect <- g st.c_redirect;
  st.c_site <-
    (let b = Array.make (2 * n) (-1) in
     Array.blit st.c_site 0 b 0 n;
     b);
  st.c_meta_pc <- g st.c_meta_pc;
  st.c_actual <- g st.c_actual;
  st.c_dbb_slot <- g st.c_dbb_slot;
  let m = Array.make (2 * n) no_ctrl_meta in
  Array.blit st.c_meta 0 m 0 n;
  st.c_meta <- m;
  let c = Array.make (2 * n) None in
  Array.blit st.c_ckpt 0 c 0 n;
  st.c_ckpt <- c

let alloc_inflight st =
  if st.free_len > 0 then begin
    st.free_len <- st.free_len - 1;
    st.free_pool.(st.free_len)
  end
  else begin
    if st.pool_next = Array.length st.i_seq then grow_pool st;
    let h = st.pool_next in
    st.pool_next <- h + 1;
    h
  end

(* Callers must guarantee the handle is unreachable from the fetch buffer,
   the pending deque and the completion scratch — a double recycle would
   hand the same row out twice. *)
let recycle_inflight st h =
  if st.c_kind.(h) <> ck_none then begin
    (* drop checkpoint / predictor-meta references; [c_site] is read
       without a kind guard on the issue path, so it must go back to -1 *)
    st.c_kind.(h) <- ck_none;
    st.c_site.(h) <- -1;
    if st.c_meta.(h) != no_ctrl_meta then st.c_meta.(h) <- no_ctrl_meta;
    (match st.c_ckpt.(h) with None -> () | Some _ -> st.c_ckpt.(h) <- None)
  end;
  if st.free_len = Array.length st.free_pool then begin
    let n = Array.length st.free_pool in
    let pool = Array.make (2 * n) 0 in
    Array.blit st.free_pool 0 pool 0 n;
    st.free_pool <- pool
  end;
  st.free_pool.(st.free_len) <- h;
  st.free_len <- st.free_len + 1

(* Scoreboard repair after a squash: recompute every register's ready
   cycle from the surviving in-flight producers. *)
let rebuild_scoreboard st =
  (* [ready] cycles can drop here, so the sweep bound is no longer a
     lower bound — force the next sweep to walk and recompute. *)
  st.sweep_bound <- 0;
  Array.fill st.ready 0 Reg.count 0;
  Array.fill st.ready_src_load 0 Reg.count 0;
  for k = 0 to Ring.length st.pending - 1 do
    let h = Ring.get st.pending k in
    if st.i_squashed.(h) = 0 then begin
      let si = st.static.(st.i_pc.(h)) in
      let dst = si.s_dst in
      if dst >= 0 && st.i_complete_cycle.(h) >= st.ready.(dst) then begin
        st.ready.(dst) <- st.i_complete_cycle.(h);
        st.ready_src_load.(dst) <- si.s_mem_kind land 1
      end
    end
  done

let line_of st pc = pc lsr st.line_shift

let operand_value st = function
  | Instr.Reg r -> st.regs.(Reg.index r)
  | Instr.Imm i -> i

(* ---- cycle accounting ------------------------------------------------- *)

(* Classify the cycle just simulated into exactly one {!Acct} component.
   Runs once per cycle, only when accounting is on, after issue and fetch
   — so [cycle_stall] holds this cycle's verdict and the scoreboard state
   is still at [now]. Priority: progress beats recovery beats back-end
   stalls beats front-end starvation; conservation holds by construction
   (one increment per call, one call per counted cycle). *)
let account_cycle st =
  let a = st.acct in
  let comp =
    if st.cycle_stall = stall_none then Acct.c_base
    else if st.in_recovery then Acct.c_recovery
    else if st.cycle_stall = stall_operand then begin
      (* the head is still at the fetch-buffer front (nothing issued) and
         the scoreboard has not advanced since the issue pass looked *)
      if Ring.length st.fbuf > 0 then begin
        let h = Ring.front st.fbuf in
        let uses = st.static.(st.i_pc.(h)).s_uses in
        let mem = ref false in
        for k = 0 to Array.length uses - 1 do
          let r = uses.(k) in
          if st.ready.(r) > st.now && st.ready_src_load.(r) = 1 then
            mem := true
        done;
        if !mem then Acct.c_memory else Acct.c_base
      end
      else Acct.c_base
    end
    else if st.cycle_stall = stall_fu then Acct.c_fu
    else if st.cycle_stall = stall_mem then Acct.c_mem_struct
    else if
      (* front end empty: split by what armed the fetch stall, if one is
         still live; otherwise fetch is merely refilling (front-stage
         delay, fetch off the end, spec-halted drain) *)
      st.fetch_stall_until > st.now
    then
      if st.fetch_stall_src = fsrc_icache then Acct.c_icache
      else if st.fetch_stall_src = fsrc_dbb then Acct.c_dbb
      else Acct.c_redirect
    else Acct.c_fetch_starve
  in
  a.Acct.components.(comp) <- a.Acct.components.(comp) + 1;
  if comp = Acct.c_recovery && st.recovery_pc >= 0 then
    Acct.record_recovery a ~pc:st.recovery_pc;
  if st.cycle_stall = stall_none then st.in_recovery <- false
