open Bv_isa
open Bv_bpred
open Bv_cache
open Machine_state

(* What will the decomposed branch actually do? Interpret the fall-through
   resolution block (condition slice + speculative loads; no stores) on
   scratch registers up to its resolve. Oracle hint for the perfect
   predictor; real predictors ignore it. *)
let predict_outcome_oracle st pc =
  let scratch = st.oracle_scratch in
  Array.blit st.regs 0 scratch 0 (Array.length scratch);
  let value = function
    | Instr.Reg r -> scratch.(Reg.index r)
    | Instr.Imm i -> i
  in
  let rec walk pc steps =
    if steps > 256 || pc < 0 || pc >= st.code_len then false
    else
      match st.code.(pc) with
      | Instr.Resolve { on; src; _ } -> (scratch.(Reg.index src) <> 0) = on
      | Instr.Alu { op; dst; src1; src2 }
      | Instr.Fpu { op; dst; src1; src2 } ->
        scratch.(Reg.index dst) <-
          Instr.eval_alu op scratch.(Reg.index src1) (value src2);
        walk (pc + 1) (steps + 1)
      | Instr.Mov { dst; src } ->
        scratch.(Reg.index dst) <- value src;
        walk (pc + 1) (steps + 1)
      | Instr.Cmp { op; dst; src1; src2 } ->
        scratch.(Reg.index dst) <-
          Bool.to_int (Instr.eval_cmp op scratch.(Reg.index src1) (value src2));
        walk (pc + 1) (steps + 1)
      | Instr.Cmov { on; cond; dst; src } ->
        if (scratch.(Reg.index cond) <> 0) = on then
          scratch.(Reg.index dst) <- value src;
        walk (pc + 1) (steps + 1)
      | Instr.Load { dst; base; offset; _ } ->
        scratch.(Reg.index dst) <-
          Spec_state.spec_load st ~addr:(scratch.(Reg.index base) + offset);
        walk (pc + 1) (steps + 1)
      | Instr.Jump _ -> walk st.static.(pc).s_target (steps + 1)
      | Instr.Nop -> walk (pc + 1) (steps + 1)
      | Instr.Store _ | Instr.Branch _ | Instr.Call _ | Instr.Ret
      | Instr.Predict _ | Instr.Halt ->
        false
  in
  walk (pc + 1) 0

(* Enqueue and return the pool row, so control instructions can fill
   their [c_*] columns in place (recycled / fresh rows already hold
   [ck_none] and cleared pointer columns). [addr] is a plain labeled
   argument — an optional int would box at every memory-instruction
   call site. *)
let enqueue_h st ~addr pc instr =
  let h = alloc_inflight st in
  st.i_seq.(h) <- st.seq;
  st.i_pc.(h) <- pc;
  st.i_fetch_cycle.(h) <- st.now;
  st.i_addr.(h) <- addr;
  st.i_complete_cycle.(h) <- max_int;
  st.i_squashed.(h) <- 0;
  st.i_prefetch.(h) <- -1;
  st.seq <- st.seq + 1;
  (* Keep the runahead sweep bound a lower bound: a new memory entry is
     a fresh sweep candidate, actionable from its operand readiness. *)
  if st.cfg.Config.runahead then begin
    let si = st.static.(pc) in
    if si.s_mem_kind <> 0 then begin
      let r = Scoreboard.readiness st si.s_uses in
      if r < st.sweep_bound then st.sweep_bound <- r
    end
  end;
  Ring.push st.fbuf h;
  if st.events_enabled then
    st.on_event (Fetched { cycle = st.now; seq = st.i_seq.(h); pc; instr });
  st.stats.Stats.fetched <- st.stats.Stats.fetched + 1;
  if st.shadow_fetches > 0 then st.shadow_fetches <- st.shadow_fetches - 1;
  h

let enqueue st pc instr = ignore (enqueue_h st ~addr:0 pc instr)

(* Shared timing for taken control transfers at fetch. *)
let steer_taken st ~pc ~target =
  let bubble =
    let t = Btb.find st.btb ~pc in
    if t = target then st.cfg.Config.taken_bubble
    else begin
      Btb.update st.btb ~pc ~target;
      st.cfg.Config.taken_bubble + st.cfg.Config.btb_miss_penalty
    end
  in
  st.fetch_pc <- target;
  st.fetch_stall_until <- st.now + bubble;
  st.fetch_stall_src <- fsrc_redirect;
  st.current_line <- -1

(* Fetch one instruction at [pc]; returns false to end this cycle's
   fetch group. *)
let fetch_exec st pc =
  let next = pc + 1 in
  match st.code.(pc) with
  | Instr.Nop as i ->
    enqueue st pc i;
    st.fetch_pc <- next;
    true
  | Instr.Alu { op; dst; src1; src2 } as i ->
    st.regs.(Reg.index dst) <-
      Instr.eval_alu op st.regs.(Reg.index src1) (operand_value st src2);
    enqueue st pc i;
    st.fetch_pc <- next;
    true
  | Instr.Fpu { op; dst; src1; src2 } as i ->
    st.regs.(Reg.index dst) <-
      Instr.eval_alu op st.regs.(Reg.index src1) (operand_value st src2);
    enqueue st pc i;
    st.fetch_pc <- next;
    true
  | Instr.Mov { dst; src } as i ->
    st.regs.(Reg.index dst) <- operand_value st src;
    enqueue st pc i;
    st.fetch_pc <- next;
    true
  | Instr.Cmp { op; dst; src1; src2 } as i ->
    st.regs.(Reg.index dst) <-
      Bool.to_int
        (Instr.eval_cmp op st.regs.(Reg.index src1) (operand_value st src2));
    enqueue st pc i;
    st.fetch_pc <- next;
    true
  | Instr.Cmov { on; cond; dst; src } as i ->
    if (st.regs.(Reg.index cond) <> 0) = on then
      st.regs.(Reg.index dst) <- operand_value st src;
    enqueue st pc i;
    st.fetch_pc <- next;
    true
  | Instr.Load { dst; base; offset; _ } as i ->
    let addr = st.regs.(Reg.index base) + offset in
    st.regs.(Reg.index dst) <- Spec_state.spec_load st ~addr;
    ignore (enqueue_h st ~addr pc i);
    st.fetch_pc <- next;
    true
  | Instr.Store { src; base; offset } as i ->
    let addr = st.regs.(Reg.index base) + offset in
    Spec_state.spec_store st ~addr st.regs.(Reg.index src);
    ignore (enqueue_h st ~addr pc i);
    st.fetch_pc <- next;
    true
  | Instr.Jump _ as i ->
    enqueue st pc i;
    steer_taken st ~pc ~target:st.static.(pc).s_target;
    false
  | Instr.Call _ as i ->
    st.call_stack <- next :: st.call_stack;
    Ras.push st.ras next;
    enqueue st pc i;
    steer_taken st ~pc ~target:st.static.(pc).s_target;
    false
  | Instr.Ret as i ->
    (match st.call_stack with
    | [] ->
      (* wrong-path underflow: park fetch until the flush arrives *)
      st.fetch_pc <- -1;
      false
    | ra :: rest ->
      st.call_stack <- rest;
      let predicted = Option.value (Ras.pop st.ras) ~default:ra in
      let mispredict = predicted <> ra in
      let checkpoint =
        if mispredict then Some (Spec_state.make_checkpoint st) else None
      in
      let h = enqueue_h st ~addr:0 pc i in
      (* [c_site] stays -1 and [c_meta] stays [no_ctrl_meta] from the
         recycled row; a ret reads neither *)
      st.c_kind.(h) <- ck_ret;
      st.c_mispredict.(h) <- Bool.to_int mispredict;
      st.c_redirect.(h) <- ra;
      (match checkpoint with None -> () | Some _ -> st.c_ckpt.(h) <- checkpoint);
      steer_taken st ~pc ~target:predicted;
      false)
  | Instr.Branch { on; src; target = _; id = _ } as i ->
    let actual_taken = (st.regs.(Reg.index src) <> 0) = on in
    let pred, meta =
      st.predictor.Predictor.predict ~pc ~outcome:actual_taken
    in
    let target_pc = st.static.(pc).s_target in
    let mispredict = pred <> actual_taken in
    let checkpoint =
      if mispredict then Some (Spec_state.make_checkpoint st) else None
    in
    let h = enqueue_h st ~addr:0 pc i in
    st.c_kind.(h) <- ck_branch;
    st.c_mispredict.(h) <- Bool.to_int mispredict;
    st.c_redirect.(h) <- (if actual_taken then target_pc else next);
    st.c_site.(h) <- st.static.(pc).s_slot;
    st.c_meta.(h) <- meta;
    st.c_meta_pc.(h) <- pc;
    st.c_actual.(h) <- Bool.to_int actual_taken;
    (match checkpoint with None -> () | Some _ -> st.c_ckpt.(h) <- checkpoint);
    if pred then begin
      steer_taken st ~pc ~target:target_pc;
      false
    end
    else begin
      st.fetch_pc <- next;
      true
    end
  | Instr.Predict { target = _; id = _ } ->
    if Dbb.is_full st.dbb then begin
      st.stats.Stats.dbb_full_stalls <- st.stats.Stats.dbb_full_stalls + 1;
      st.fetch_stall_until <- st.now + 1;
      st.fetch_stall_src <- fsrc_dbb;
      false
    end
    else begin
      (* the walk is side-effect-free and its result only feeds the
         perfect predictor's [~outcome] — skip it for real predictors *)
      let outcome = st.oracle_needed && predict_outcome_oracle st pc in
      let pred, meta = st.predictor.Predictor.predict ~pc ~outcome in
      let slot = Dbb.allocate st.dbb ~pc ~meta ~taken:pred in
      assert (slot >= 0);
      ignore slot;
      st.stats.Stats.predicts_fetched <- st.stats.Stats.predicts_fetched + 1;
      st.stats.Stats.dbb_max_occupancy <-
        max st.stats.Stats.dbb_max_occupancy (Dbb.occupancy st.dbb);
      (* The predict is dropped after steering: no fetch-buffer entry,
         no issue slot. *)
      if pred then begin
        steer_taken st ~pc ~target:st.static.(pc).s_target;
        false
      end
      else begin
        st.fetch_pc <- next;
        true
      end
    end
  | Instr.Resolve { on; src; target = _; predicted_taken; id = _ } as i ->
    let actual_taken = (st.regs.(Reg.index src) <> 0) = on in
    let mispredict = actual_taken <> predicted_taken in
    let slot = Dbb.claim_newest st.dbb in
    let checkpoint =
      if mispredict then Some (Spec_state.make_checkpoint st) else None
    in
    let h = enqueue_h st ~addr:0 pc i in
    st.c_kind.(h) <- ck_resolve;
    st.c_mispredict.(h) <- Bool.to_int mispredict;
    st.c_redirect.(h) <- (if mispredict then st.static.(pc).s_target else next);
    st.c_site.(h) <- st.static.(pc).s_slot;
    if slot >= 0 then begin
      st.c_meta.(h) <- Dbb.slot_meta st.dbb slot;
      st.c_meta_pc.(h) <- Dbb.slot_pc st.dbb slot
    end
    else st.c_meta_pc.(h) <- pc;
    st.c_actual.(h) <- Bool.to_int actual_taken;
    st.c_dbb_slot.(h) <- slot;
    (match checkpoint with None -> () | Some _ -> st.c_ckpt.(h) <- checkpoint);
    (* always predicted not-taken by the front end *)
    st.fetch_pc <- next;
    true
  | Instr.Halt as i ->
    st.spec_halted <- true;
    enqueue st pc i;
    false

let fetch_one st =
  let pc = st.fetch_pc in
  if pc < 0 || pc >= st.code_len then false
  else begin
    let line = line_of st pc in
    if line <> st.current_line then begin
      let lat = Hierarchy.inst_access_latency st.hier ~addr:(pc * 4) in
      st.current_line <- line;
      if lat > 0 then begin
        st.stats.Stats.icache_misses <- st.stats.Stats.icache_misses + 1;
        if st.shadow_fetches > 0 then
          st.stats.Stats.icache_misses_in_shadow <-
            st.stats.Stats.icache_misses_in_shadow + 1;
        st.stats.Stats.icache_stall_cycles <-
          st.stats.Stats.icache_stall_cycles + lat;
        st.fetch_stall_until <- st.now + lat;
        st.fetch_stall_src <- fsrc_icache;
        false
      end
      else fetch_exec st pc
    end
    else fetch_exec st pc
  end

(* Fetch up to [width] instructions this cycle; stops on taken steer,
   stall, halt, or a full fetch buffer. *)
let fetch_up_to_width st =
  let cfg = st.cfg in
  let fetched_now = ref 0 in
  let go = ref true in
  while
    !go
    && !fetched_now < cfg.Config.width
    && (not st.spec_halted)
    && st.fetch_stall_until <= st.now
    && not (Ring.is_full st.fbuf)
  do
    if fetch_one st then incr fetched_now else go := false
  done

(* The frozen check stays outside the loop's function: merged into it,
   the same instructions measured 4-7% slower sim-* benchmark rounds
   (dune dev profile, Sapphire Rapids VM) from code placement alone. *)
let fetch_group st = if st.fetch_frozen then () else fetch_up_to_width st
