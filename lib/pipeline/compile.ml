open Bv_isa
open Machine_state

(* Block-compiled fast path: per-pc fused fetch/execute closures.

   The interpreted front end pays, per dynamic instruction, one wide
   decode match, an [operand_value] dispatch per operand and a
   [Reg.index] per register. All of that is static per pc, so [attach]
   folds it into one closure per pc at machine-creation time: the
   closure body is the already-specialised ALU/compare/move kernel plus
   the pool-row enqueue. [run_len] additionally records, per pc, how
   many consecutive simple (non-control, non-halt) instructions follow
   within the same I-cache line, so the front end can hoist the
   per-instruction loop conditions (width budget, buffer space, line
   residency) out of a whole straight-line run and issue one closure
   call per instruction with no re-checks in between.

   Byte-identity contract: a compiled run must be indistinguishable from
   an interpreted one in every counter and digest. The closures
   therefore replicate [Frontend.enqueue_h] exactly minus the event
   hook, which is sound because [attach] is only ever called when no
   observer is attached ([events_enabled = false]). Control
   instructions, halts and anything line-crossing keep [run_len] = 0
   and fall back to the interpreted [Frontend.fetch_exec]. *)

(* [Frontend.enqueue_h] minus the event construction (guaranteed dead
   here: compiled mode implies [events_enabled = false]). *)
let[@inline] enq st ~addr pc =
  let h = alloc_inflight st in
  st.i_seq.(h) <- st.seq;
  st.i_pc.(h) <- pc;
  st.i_fetch_cycle.(h) <- st.now;
  st.i_addr.(h) <- addr;
  st.i_complete_cycle.(h) <- max_int;
  st.i_squashed.(h) <- 0;
  st.i_prefetch.(h) <- -1;
  st.seq <- st.seq + 1;
  Ring.push st.fbuf h;
  st.stats.Stats.fetched <- st.stats.Stats.fetched + 1;
  if st.shadow_fetches > 0 then st.shadow_fetches <- st.shadow_fetches - 1

(* Mirror of the [Frontend.enqueue_h] sweep-bound fold for the fused
   load/store closures: a newly fetched memory entry is a fresh runahead
   sweep candidate, actionable from its operand readiness. *)
let[@inline] fold_sweep st pc =
  if st.cfg.Config.runahead then begin
    let uses = st.static.(pc).s_uses in
    let r = ref 0 in
    for k = 0 to Array.length uses - 1 do
      let t = st.ready.(uses.(k)) in
      if t > !r then r := t
    done;
    if !r < st.sweep_bound then st.sweep_bound <- !r
  end

(* Specialised ALU closures, one per (op, operand-kind) pair, the pool
   enqueue fused in (no flambda: a second closure layer would cost an
   extra indirect call per dynamic instruction). These must mirror
   [Instr.eval_alu] bit for bit (including the 63-bit shift clamping). *)
let alu_op pc op d a src2 =
  match src2 with
  | Instr.Imm b -> (
    match op with
    | Instr.Add ->
      fun st -> st.regs.(d) <- st.regs.(a) + b; enq st ~addr:0 pc
    | Instr.Sub ->
      fun st -> st.regs.(d) <- st.regs.(a) - b; enq st ~addr:0 pc
    | Instr.And ->
      fun st -> st.regs.(d) <- st.regs.(a) land b; enq st ~addr:0 pc
    | Instr.Or ->
      fun st -> st.regs.(d) <- st.regs.(a) lor b; enq st ~addr:0 pc
    | Instr.Xor ->
      fun st -> st.regs.(d) <- st.regs.(a) lxor b; enq st ~addr:0 pc
    | Instr.Shl ->
      let s = min 62 (b land 63) in
      fun st -> st.regs.(d) <- st.regs.(a) lsl s; enq st ~addr:0 pc
    | Instr.Shr ->
      let s = min 62 (b land 63) in
      fun st -> st.regs.(d) <- st.regs.(a) asr s; enq st ~addr:0 pc
    | Instr.Mul ->
      fun st -> st.regs.(d) <- st.regs.(a) * b; enq st ~addr:0 pc)
  | Instr.Reg r -> (
    let c = Reg.index r in
    match op with
    | Instr.Add ->
      fun st -> st.regs.(d) <- st.regs.(a) + st.regs.(c); enq st ~addr:0 pc
    | Instr.Sub ->
      fun st -> st.regs.(d) <- st.regs.(a) - st.regs.(c); enq st ~addr:0 pc
    | Instr.And ->
      fun st -> st.regs.(d) <- st.regs.(a) land st.regs.(c); enq st ~addr:0 pc
    | Instr.Or ->
      fun st -> st.regs.(d) <- st.regs.(a) lor st.regs.(c); enq st ~addr:0 pc
    | Instr.Xor ->
      fun st ->
        st.regs.(d) <- st.regs.(a) lxor st.regs.(c);
        enq st ~addr:0 pc
    | Instr.Shl ->
      fun st ->
        st.regs.(d) <- st.regs.(a) lsl (min 62 (st.regs.(c) land 63));
        enq st ~addr:0 pc
    | Instr.Shr ->
      fun st ->
        st.regs.(d) <- st.regs.(a) asr (min 62 (st.regs.(c) land 63));
        enq st ~addr:0 pc
    | Instr.Mul ->
      fun st -> st.regs.(d) <- st.regs.(a) * st.regs.(c); enq st ~addr:0 pc)

let cmp_op pc op d a src2 =
  match src2 with
  | Instr.Imm b -> (
    match op with
    | Instr.Eq ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) = b);
        enq st ~addr:0 pc
    | Instr.Ne ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) <> b);
        enq st ~addr:0 pc
    | Instr.Lt ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) < b);
        enq st ~addr:0 pc
    | Instr.Ge ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) >= b);
        enq st ~addr:0 pc
    | Instr.Le ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) <= b);
        enq st ~addr:0 pc
    | Instr.Gt ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) > b);
        enq st ~addr:0 pc)
  | Instr.Reg r -> (
    let c = Reg.index r in
    match op with
    | Instr.Eq ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) = st.regs.(c));
        enq st ~addr:0 pc
    | Instr.Ne ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) <> st.regs.(c));
        enq st ~addr:0 pc
    | Instr.Lt ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) < st.regs.(c));
        enq st ~addr:0 pc
    | Instr.Ge ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) >= st.regs.(c));
        enq st ~addr:0 pc
    | Instr.Le ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) <= st.regs.(c));
        enq st ~addr:0 pc
    | Instr.Gt ->
      fun st ->
        st.regs.(d) <- Bool.to_int (st.regs.(a) > st.regs.(c));
        enq st ~addr:0 pc)

(* The fused step for one simple instruction, or [None] for anything
   that can steer fetch, stall, halt or fill the DBB — those keep the
   interpreted [Frontend.fetch_exec] path. *)
let build_op pc (instr : Instr.t) : (t -> unit) option =
  match instr with
  | Instr.Nop -> Some (fun st -> enq st ~addr:0 pc)
  | Instr.Alu { op; dst; src1; src2 } | Instr.Fpu { op; dst; src1; src2 } ->
    Some (alu_op pc op (Reg.index dst) (Reg.index src1) src2)
  | Instr.Mov { dst; src } ->
    let d = Reg.index dst in
    Some
      (match src with
      | Instr.Imm i -> fun st -> st.regs.(d) <- i; enq st ~addr:0 pc
      | Instr.Reg r ->
        let s = Reg.index r in
        fun st -> st.regs.(d) <- st.regs.(s); enq st ~addr:0 pc)
  | Instr.Cmp { op; dst; src1; src2 } ->
    Some (cmp_op pc op (Reg.index dst) (Reg.index src1) src2)
  | Instr.Cmov { on; cond; dst; src } ->
    let c = Reg.index cond and d = Reg.index dst in
    Some
      (match src with
      | Instr.Imm i ->
        if on then fun st ->
          if st.regs.(c) <> 0 then st.regs.(d) <- i;
          enq st ~addr:0 pc
        else
          fun st ->
          if st.regs.(c) = 0 then st.regs.(d) <- i;
          enq st ~addr:0 pc
      | Instr.Reg r ->
        let s = Reg.index r in
        if on then fun st ->
          if st.regs.(c) <> 0 then st.regs.(d) <- st.regs.(s);
          enq st ~addr:0 pc
        else
          fun st ->
          if st.regs.(c) = 0 then st.regs.(d) <- st.regs.(s);
          enq st ~addr:0 pc)
  | Instr.Load { dst; base; offset; speculative = _ } ->
    let d = Reg.index dst and b = Reg.index base in
    Some
      (fun st ->
        let addr = st.regs.(b) + offset in
        st.regs.(d) <- Spec_state.spec_load st ~addr;
        fold_sweep st pc;
        enq st ~addr pc)
  | Instr.Store { src; base; offset } ->
    let s = Reg.index src and b = Reg.index base in
    Some
      (fun st ->
        let addr = st.regs.(b) + offset in
        Spec_state.spec_store st ~addr st.regs.(s);
        fold_sweep st pc;
        enq st ~addr pc)
  | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
  | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
    None

let attach st =
  let n = st.code_len in
  let nop (_ : t) = () in
  let ops = Array.make (max n 1) nop in
  let run = Array.make (max n 1) 0 in
  for pc = 0 to n - 1 do
    match build_op pc st.code.(pc) with
    | Some f -> ops.(pc) <- f
    | None -> ()
  done;
  (* Straight-line run lengths, computed backwards; a run never crosses
     an I-cache line boundary, so a block dispatched while the line is
     resident needs no per-instruction line check. *)
  for pc = n - 1 downto 0 do
    if ops.(pc) != nop then
      run.(pc) <-
        (if pc + 1 < n && line_of st (pc + 1) = line_of st pc then
           1 + run.(pc + 1)
         else 1)
  done;
  st.fetch_ops <- ops;
  st.run_len <- run;
  st.compiled <- true

(* ---- stall skipping ---------------------------------------------------- *)

(* Fast-forward [st.now] through cycles in which the machine provably
   does nothing but bookkeeping, applying each skipped cycle's counter
   updates in closed form. Two such states exist:

   1. Empty fetch buffer with a blocked front end (I-cache stall,
      redirect bubble, spec-halt drain, fetch off the end): nothing can
      issue, nothing can fetch, and nothing completes below
      [next_complete].

   2. A parked issue head (operand-blocked until [park_until]) with the
      front end also blocked: in-order issue means nothing younger can
      move either. Under runahead the skip is additionally bounded by
      the earliest cycle at which the prefetch sweep could act (see
      [sweep_bound] below).

   Only called on compiled runs (no observers): the per-cycle effects of
   a skipped cycle are exactly the counter increments replicated here,
   so the result is byte-identical to stepping cycle by cycle. *)
(* Observability for the microbenchmarks and the perf probe: cycles
   fast-forwarded by each skip case since process start. *)
let skipped_empty = ref 0
let skipped_parked = ref 0

let skip_stalls st ~limit =
  let now = st.now in
  if Ring.length st.fbuf = 0 then begin
    let fetch_blocked_until =
      if
        st.spec_halted || st.fetch_frozen || st.fetch_pc < 0
        || st.fetch_pc >= st.code_len
      then max_int
      else st.fetch_stall_until
    in
    let target = imin limit (imin fetch_blocked_until st.next_complete) in
    let k = target - now in
    if k > 0 then begin
      let stats = st.stats in
      stats.Stats.frontend_empty_cycles <-
        stats.Stats.frontend_empty_cycles + k;
      stats.Stats.dbb_occupancy_sum <-
        stats.Stats.dbb_occupancy_sum + (Dbb.occupancy st.dbb * k);
      stats.Stats.dbb_samples <- stats.Stats.dbb_samples + k;
      Spec_state.log_trim st;
      skipped_empty := !skipped_empty + k;
      st.now <- now + k;
      stats.Stats.cycles <- st.now
    end
  end
  else begin
    let h = Ring.front st.fbuf in
    if h = st.park_h && now < st.park_until && st.i_seq.(h) = st.park_seq
    then begin
      (* Under runahead, stalled cycles run the prefetch sweep — but the
         sweep only acts on a not-yet-prefetched memory entry whose
         operands are ready, and ready times are fixed while nothing
         issues or completes. It is therefore a provable no-op strictly
         below the earliest readiness among unprefetched memory entries
         in the fetch buffer; skipping stops there. *)
      let fetch_blocked_until =
        if
          Ring.is_full st.fbuf || st.spec_halted || st.fetch_frozen
          || st.fetch_pc < 0
          || st.fetch_pc >= st.code_len
        then max_int
        else st.fetch_stall_until
      in
      let target0 =
        imin limit
          (imin st.park_until (imin fetch_blocked_until st.next_complete))
      in
      (* Only pay the sweep-bound scan when the cheap bounds already
         permit a skip. *)
      let target =
        if target0 <= now || not st.cfg.Config.runahead then target0
        else begin
          let b = ref target0 in
          let n = Ring.length st.fbuf in
          let k = ref 0 in
          while !b > now && !k < n do
            let e = Ring.get st.fbuf !k in
            if st.i_prefetch.(e) < 0 then begin
              let si = st.static.(st.i_pc.(e)) in
              if si.s_mem_kind <> 0 then begin
                let uses = si.s_uses in
                let r = ref 0 in
                for j = 0 to Array.length uses - 1 do
                  let t = st.ready.(uses.(j)) in
                  if t > !r then r := t
                done;
                if !r < !b then b := !r
              end
            end;
            incr k
          done;
          !b
        end
      in
      let k = target - now in
      if k > 0 then begin
        let stats = st.stats in
        stats.Stats.head_stall_cycles <- stats.Stats.head_stall_cycles + k;
        stats.Stats.operand_stall_cycles <-
          stats.Stats.operand_stall_cycles + k;
        let slot = st.c_site.(h) in
        if slot >= 0 then Stats.add_site_stalls stats ~slot ~n:k;
        stats.Stats.dbb_occupancy_sum <-
          stats.Stats.dbb_occupancy_sum + (Dbb.occupancy st.dbb * k);
        stats.Stats.dbb_samples <- stats.Stats.dbb_samples + k;
        Spec_state.log_trim st;
        skipped_parked := !skipped_parked + k;
        st.now <- now + k;
        stats.Stats.cycles <- st.now
      end
    end
  end
