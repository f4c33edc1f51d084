open Bv_cache

type event = Machine_state.event =
  | Fetched of { cycle : int; seq : int; pc : int; instr : Bv_isa.Instr.t }
  | Issued of { cycle : int; seq : int }
  | Completed of { cycle : int; seq : int; mispredicted : bool }
  | Squashed of { cycle : int; seq : int }
  | Redirected of { cycle : int; after_seq : int; new_pc : int }

type result =
  { stats : Stats.t;
    hierarchy : Hierarchy.t;
    config : Config.t;
    finished : bool;
    mem_digest : int;
    stores_retired : int;
    arch_digest : int;
    skipped_cycles : int
  }

let fnv_fold acc v = (acc lxor v) * 0x100000001B3 land max_int

(* One simulated cycle. Stage order within a cycle: complete (which may
   flush), issue, fetch — an instruction fetched this cycle cannot issue
   this cycle (the front-stage delay enforces that anyway). *)
let cycle st ~on_cycle =
  Backend.process_completions st;
  if not st.Machine_state.finished then begin
    let stats = st.Machine_state.stats in
    Scoreboard.issue st;
    Frontend.fetch_group st;
    let dbb_occupancy = Dbb.occupancy st.Machine_state.dbb in
    stats.Stats.dbb_occupancy_sum <-
      stats.Stats.dbb_occupancy_sum + dbb_occupancy;
    stats.Stats.dbb_samples <- stats.Stats.dbb_samples + 1;
    Spec_state.log_trim st;
    if st.Machine_state.acct_enabled then Machine_state.account_cycles st 1;
    st.Machine_state.now <- st.Machine_state.now + 1;
    stats.Stats.cycles <- st.Machine_state.now;
    match on_cycle with
    | Some f -> f ~cycle:st.Machine_state.now ~stats ~dbb_occupancy
    | None -> ()
  end

(* ---- stall skipping ---------------------------------------------------- *)

(* The first cycle at which fetch could next act (max_int: not before a
   completion or a flush changes the machine). *)
let fetch_blocked_until st =
  let open Machine_state in
  if
    Ring.is_full st.fbuf || st.spec_halted || st.fetch_frozen
    || st.fetch_pc < 0
    || st.fetch_pc >= st.code_len
  then max_int
  else st.fetch_stall_until

(* Apply the bookkeeping every one of [k] skipped cycles shares, each of
   them a zero-issue cycle blocked by [stall]. *)
let advance st ~stall k =
  let open Machine_state in
  st.skipped_cycles <- st.skipped_cycles + k;
  let stats = st.stats in
  stats.Stats.dbb_occupancy_sum <-
    stats.Stats.dbb_occupancy_sum + (Dbb.occupancy st.dbb * k);
  stats.Stats.dbb_samples <- stats.Stats.dbb_samples + k;
  Spec_state.log_trim st;
  st.cycle_stall <- stall;
  if st.acct_enabled then account_cycles st k;
  st.now <- st.now + k;
  stats.Stats.cycles <- st.now

(* Fast-forward [st.now] through cycles in which the machine provably
   does nothing but bookkeeping, applying each skipped cycle's counter
   updates and, on an accounted run, its CPI-stack charge in closed form
   ({!Machine_state.account_cycles}). Two such states exist:

   1. Empty fetch buffer with a blocked front end (I-cache stall,
      redirect bubble, spec-halt drain, fetch off the end): nothing can
      issue, nothing can fetch, and nothing completes below
      [next_complete].

   2. A parked issue head (operand-blocked until [park_until]) with the
      front end also blocked: in-order issue means nothing younger can
      move either. Under runahead the skip also stops at [sweep_bound],
      below which a stepped cycle skips the prefetch sweep as well; at
      or past it (0 when unknown) the cycle steps and its sweep
      recomputes the bound.

   Nothing fetches, issues, completes or flushes in a skipped cycle, so
   no event fires in one and its effects are exactly the counter
   increments replicated here: the result is byte-identical to stepping
   cycle by cycle. *)
let skip_stalls st ~limit =
  let open Machine_state in
  let now = st.now in
  if Ring.length st.fbuf = 0 then begin
    let target =
      imin limit (imin (fetch_blocked_until st) st.next_complete)
    in
    let k = target - now in
    if k > 0 then begin
      let stats = st.stats in
      stats.Stats.frontend_empty_cycles <-
        stats.Stats.frontend_empty_cycles + k;
      advance st ~stall:stall_frontend k
    end
  end
  else begin
    let h = Ring.front st.fbuf in
    if h = st.park_h && now < st.park_until && st.i_seq.(h) = st.park_seq
    then begin
      let target =
        imin limit
          (imin st.park_until
             (imin (fetch_blocked_until st) st.next_complete))
      in
      let target =
        if st.cfg.Config.runahead then imin target st.sweep_bound else target
      in
      let k = target - now in
      if k > 0 then begin
        let stats = st.stats in
        stats.Stats.head_stall_cycles <- stats.Stats.head_stall_cycles + k;
        stats.Stats.operand_stall_cycles <-
          stats.Stats.operand_stall_cycles + k;
        let slot = st.c_site.(h) in
        if slot >= 0 then Stats.add_site_stalls stats ~slot ~n:k;
        advance st ~stall:stall_operand k
      end
    end
  end

(* Step the machine until it finishes, reaches [max_cycles] or [continue]
   turns false. This is the one place that decides whether cycles may be
   skipped: only a per-cycle hook sees every cycle, so a run skips stalls
   unless it has an [on_cycle]. Events and cycle accounting need no
   stepping: no event fires in a skippable cycle, and {!skip_stalls}
   charges the stretch in closed form. The stepped path is the reference
   the skip must reproduce. *)
let run_while st ~max_cycles ~on_cycle continue =
  let skip = Option.is_none on_cycle in
  while
    (not st.Machine_state.finished)
    && st.Machine_state.now < max_cycles
    && continue ()
  do
    if skip then skip_stalls st ~limit:max_cycles;
    if st.Machine_state.now < max_cycles then cycle st ~on_cycle
  done

let run_to st ~max_cycles ~max_retired ~on_cycle =
  let stats = st.Machine_state.stats in
  run_while st ~max_cycles ~on_cycle (fun () ->
      Stats.retired stats < max_retired)

let result_of st =
  (* [Interp.mem_digest]'s fold, over the machine's memory *)
  let mem = st.Machine_state.mem in
  let acc = ref 0xcbf29ce4 in
  for w = 0 to Bigarray.Array1.dim mem - 1 do
    acc := fnv_fold !acc mem.{w}
  done;
  let mem_digest = !acc in
  { stats = st.Machine_state.stats;
    hierarchy = st.Machine_state.hier;
    config = st.Machine_state.cfg;
    finished = st.Machine_state.finished;
    mem_digest;
    stores_retired = st.Machine_state.stores_retired;
    arch_digest = fnv_fold mem_digest st.Machine_state.stores_retired;
    skipped_cycles = st.Machine_state.skipped_cycles
  }

let run ?(max_cycles = 1_000_000_000) ?(max_retired = max_int) ?on_event
    ?on_cycle ?acct ~config image =
  let st = Machine_state.create ~config ?on_event ?acct image in
  run_to st ~max_cycles ~max_retired ~on_cycle;
  (match acct with
  | Some a -> Acct.check a ~cycles:st.Machine_state.stats.Stats.cycles
  | None -> ());
  result_of st

(* ---- SMARTS-style interval sampling ------------------------------------ *)

type sample_params =
  { sp_period : int;  (* instructions per sampling period *)
    sp_detail : int;  (* measured (detailed) instructions per period *)
    sp_warmup : int  (* detailed warmup instructions before each window *)
  }

let default_sample_params =
  { sp_period = 10_000; sp_detail = 1_000; sp_warmup = 300 }

type sampled =
  { sam_result : result;
    sam_estimate : Smarts.estimate
  }

(* Alternate detailed simulation (warmup + measured window, measured
   through pipeline drain so every window's instructions are fully
   costed) with functional fast-forward on one machine. The drain runs
   with fetch frozen until the fetch buffer and pending deque empty,
   which releases every checkpoint — at that point the speculative state
   IS the committed state and [Ffwd.run] can take over. Architectural
   results (memory digest, store count) are exact: both modes execute
   the same committed semantics, only the timing of the fast-forwarded
   stretches is extrapolated. *)
let run_sampled ?(max_cycles = 1_000_000_000)
    ?(params = default_sample_params) ~config image =
  let p =
    { sp_period = max 1 params.sp_period;
      sp_detail = max 1 params.sp_detail;
      sp_warmup = max 0 params.sp_warmup
    }
  in
  let st = Machine_state.create ~config image in
  let stats = st.Machine_state.stats in
  let windows = ref [] in
  let ff_instrs = ref 0 in
  let ff_halted = ref false in
  let drain () =
    st.Machine_state.fetch_frozen <- true;
    run_while st ~max_cycles ~on_cycle:None (fun () ->
        Machine_state.Ring.length st.Machine_state.fbuf > 0
        || Machine_state.Ring.length st.Machine_state.pending > 0);
    st.Machine_state.fetch_frozen <- false
  in
  while
    (not st.Machine_state.finished)
    && (not !ff_halted)
    && st.Machine_state.now < max_cycles
  do
    (* Detailed warmup: simulated in full, excluded from the window. *)
    run_to st ~max_cycles
      ~max_retired:(Stats.retired stats + p.sp_warmup)
      ~on_cycle:None;
    (* Measured window, costed through the drain. *)
    let w0_instr = Stats.retired stats in
    let w0_cycles = st.Machine_state.now in
    let w0_misp = Stats.mispredicts stats in
    run_to st ~max_cycles ~max_retired:(w0_instr + p.sp_detail)
      ~on_cycle:None;
    drain ();
    let w_instrs = Stats.retired stats - w0_instr in
    if w_instrs > 0 then
      windows :=
        { Smarts.w_start_instr = !ff_instrs + w0_instr;
          w_instrs;
          w_cycles = st.Machine_state.now - w0_cycles;
          w_mispredicts = Stats.mispredicts stats - w0_misp
        }
        :: !windows;
    (* Functional fast-forward to the next period. *)
    if (not st.Machine_state.finished) && st.Machine_state.now < max_cycles
    then begin
      let ff_n = p.sp_period - p.sp_detail - p.sp_warmup in
      if ff_n > 0 then begin
        let o = Ffwd.run st ~max_instrs:ff_n in
        ff_instrs := !ff_instrs + o.Ffwd.executed;
        (* [executed = 0] without a halt means fetch ran off the program
           with an idle pipeline — nothing left to simulate. *)
        if o.Ffwd.halted || o.Ffwd.executed = 0 then ff_halted := true
      end
      else if w_instrs = 0 then
        (* detail >= period and no forward progress: bail out rather
           than spin (a wedged machine exits via max_cycles instead). *)
        ff_halted := true
    end
  done;
  if !ff_halted then st.Machine_state.finished <- true;
  let est =
    Smarts.estimate
      ~windows:(List.rev !windows)
      ~total_instrs:(Stats.retired stats + !ff_instrs)
      ~detailed_instrs:(Stats.retired stats)
      ~detailed_cycles:st.Machine_state.now
  in
  { sam_result = result_of st; sam_estimate = est }

let result_to_json ?acct ?sampled r =
  let open Bv_obs.Json in
  Obj
    [ ("config", String (Config.name r.config));
      ("width", Int r.config.Config.width);
      ("predictor", String (Bv_bpred.Kind.name r.config.Config.predictor));
      ("finished", Bool r.finished);
      ("stores_retired", Int r.stores_retired);
      ("stats", Stats.to_json ?acct ?sampled r.stats);
      ("cache", Hierarchy.to_json r.hierarchy)
    ]
