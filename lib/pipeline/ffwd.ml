open Bv_isa
open Bv_bpred
open Bv_cache
open Machine_state

(* Functional fast-forward between sampled windows (SMARTS-style).

   The frontend already executes architecturally at fetch, so committed
   execution needs none of the timing machinery: this walks the program
   functionally on the machine's own architectural state (registers,
   memory, call stack) while warming the long-lived microarchitectural
   structures — branch predictor (predict/update/recover, exactly as a
   completed branch would train), BTB, RAS, DBB and both cache
   hierarchies. No cycles pass ([st.now] is untouched) and no Stats
   counters move: fast-forwarded instructions are accounted by the
   sampling driver, not the detailed counters.

   Precondition: the pipeline is drained — empty fetch buffer and
   pending deque, no live checkpoints — so the speculative state IS the
   committed state and stores can write memory directly (no undo log).
   [Machine.run_sampled] establishes this before every hand-off. *)

type outcome =
  { executed : int;  (* instructions executed, [Halt] included *)
    halted : bool
  }

let run st ~max_instrs =
  assert (Ring.length st.fbuf = 0 && Ring.length st.pending = 0);
  assert (st.live_checkpoints = 0);
  let code = st.code in
  let regs = st.regs in
  let value = function
    | Instr.Reg r -> regs.(Reg.index r)
    | Instr.Imm i -> i
  in
  let warm_btb pc target =
    if Btb.find st.btb ~pc <> target then Btb.update st.btb ~pc ~target
  in
  let p = st.predictor in
  (* Each branch trains right after its prediction, so one meta row
     serves them all. *)
  let scratch = Array.make p.Predictor.meta_words 0 in
  let n = ref 0 in
  let pc = ref st.fetch_pc in
  let halted = ref st.spec_halted in
  let last_line = ref (-1) in
  while (not !halted) && !n < max_instrs && !pc >= 0 && !pc < st.code_len do
    (* I-cache warming: one access per line transition, like fetch *)
    let line = line_of st !pc in
    if line <> !last_line then begin
      ignore (Hierarchy.inst_access_latency st.hier ~addr:(!pc * 4));
      last_line := line
    end;
    incr n;
    let next = !pc + 1 in
    match code.(!pc) with
    | Instr.Nop -> pc := next
    | Instr.Alu { op; dst; src1; src2 } | Instr.Fpu { op; dst; src1; src2 } ->
      regs.(Reg.index dst) <-
        Instr.eval_alu op regs.(Reg.index src1) (value src2);
      pc := next
    | Instr.Mov { dst; src } ->
      regs.(Reg.index dst) <- value src;
      pc := next
    | Instr.Cmp { op; dst; src1; src2 } ->
      regs.(Reg.index dst) <-
        Bool.to_int (Instr.eval_cmp op regs.(Reg.index src1) (value src2));
      pc := next
    | Instr.Cmov { on; cond; dst; src } ->
      if (regs.(Reg.index cond) <> 0) = on then
        regs.(Reg.index dst) <- value src;
      pc := next
    | Instr.Load { dst; base; offset; speculative = _ } ->
      let addr = regs.(Reg.index base) + offset in
      ignore (Hierarchy.data_access_latency st.hier ~addr ~write:false);
      regs.(Reg.index dst) <- Spec_state.spec_load st ~addr;
      pc := next
    | Instr.Store { src; base; offset } ->
      let addr = regs.(Reg.index base) + offset in
      ignore (Hierarchy.data_access_latency st.hier ~addr ~write:true);
      if addr land 7 = 0 && addr >= 0 && addr / 8 < st.mem_words then
        st.mem.{addr / 8} <- regs.(Reg.index src);
      st.stores_retired <- st.stores_retired + 1;
      pc := next
    | Instr.Branch { on; src; target = _; id = _ } ->
      let taken = (regs.(Reg.index src) <> 0) = on in
      let pred = p.Predictor.predict_at scratch 0 ~pc:!pc ~outcome:taken in
      p.Predictor.update_at scratch 0 ~pc:!pc ~taken;
      if pred <> taken then p.Predictor.recover_at scratch 0 ~taken;
      if taken then begin
        let target = st.static.(!pc).s_target in
        warm_btb !pc target;
        pc := target
      end
      else pc := next
    | Instr.Jump _ ->
      let target = st.static.(!pc).s_target in
      warm_btb !pc target;
      pc := target
    | Instr.Call _ ->
      let target = st.static.(!pc).s_target in
      st.call_stack <- next :: st.call_stack;
      Ras.push st.ras next;
      warm_btb !pc target;
      pc := target
    | Instr.Ret -> (
      match st.call_stack with
      | [] -> halted := true  (* malformed program; stop cleanly *)
      | ra :: rest ->
        st.call_stack <- rest;
        ignore (Ras.pop st.ras);
        pc := ra)
    | Instr.Predict { target = _; id = _ } ->
      (* Committed control flow follows the prediction; the paired
         resolve corrects it below, so any policy is architecturally
         equivalent (the prove pass guarantees this) — using the live
         predictor keeps the DBB pairing and training realistic. *)
      let outcome =
        st.oracle_needed && Frontend.predict_outcome_oracle st !pc
      in
      (* into the allocated slot's meta row; with the DBB full, the
         prediction still shifts the history and its row is dropped *)
      let slot = Dbb.allocate st.dbb ~pc:!pc in
      let pred =
        if slot >= 0 then begin
          let pred =
            p.Predictor.predict_at (Dbb.meta st.dbb)
              (Dbb.meta_row st.dbb slot) ~pc:!pc ~outcome
          in
          Dbb.set_taken st.dbb slot pred;
          pred
        end
        else p.Predictor.predict_at scratch 0 ~pc:!pc ~outcome
      in
      if pred then begin
        let target = st.static.(!pc).s_target in
        warm_btb !pc target;
        pc := target
      end
      else pc := next
    | Instr.Resolve { on; src; target = _; predicted_taken; id = _ } ->
      let taken = (regs.(Reg.index src) <> 0) = on in
      let mispredict = taken <> predicted_taken in
      let slot = Dbb.claim_newest st.dbb in
      if slot >= 0 then begin
        let m = Dbb.meta st.dbb and o = Dbb.meta_row st.dbb slot in
        p.Predictor.update_at m o ~pc:(Dbb.slot_pc st.dbb slot) ~taken;
        if mispredict then p.Predictor.recover_at m o ~taken;
        Dbb.free st.dbb slot
      end;
      if mispredict then pc := st.static.(!pc).s_target else pc := next
    | Instr.Halt -> halted := true
  done;
  (* Hand the stream back to the detailed front end. *)
  st.fetch_pc <- !pc;
  st.current_line <- -1;
  { executed = !n; halted = !halted }
