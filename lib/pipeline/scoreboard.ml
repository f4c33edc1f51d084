open Bv_cache
open Machine_state

(* In-order issue from the fetch-buffer head: head-of-line blocking on
   operands, FU slots and memory structures (MSHRs / store buffer).

   Hot path: operand checks read the three padded use slots out of the
   static table (no loop, so [ocamlopt] inlines them), memory-op
   classification is a pre-decoded int, and MSHR / store-buffer
   occupancy is an O(1) size read of the release heaps drained once at
   the top of the cycle. *)

let operands_ready st si =
  let ready = st.ready and now = st.now in
  ready.(si.s_use0) <= now
  && ready.(si.s_use1) <= now
  && ready.(si.s_use2) <= now

let readiness st si =
  let ready = st.ready in
  imax ready.(si.s_use0) (imax ready.(si.s_use1) ready.(si.s_use2))

let issue st =
  let cfg = st.cfg in
  let fu_left = st.fu_left in
  fu_left.(fu_int) <- cfg.Config.int_units;
  fu_left.(fu_fp) <- cfg.Config.fp_units;
  fu_left.(fu_mem) <- cfg.Config.mem_units;
  fu_left.(fu_branch) <- cfg.Config.branch_units;
  (* the no-FU class can be decremented unconditionally without ever
     blocking: [width] bounds the decrements per cycle *)
  fu_left.(fu_none) <- max_int;
  let issued_now = ref 0 in
  st.cycle_stall <- stall_none;
  Release.drain st.mshr_release ~now:st.now;
  Release.drain st.store_release ~now:st.now;
  let blocked = ref false in
  while (not !blocked) && !issued_now < cfg.Config.width do
    if Ring.length st.fbuf = 0 then begin
      if !issued_now = 0 then begin
        st.stats.Stats.frontend_empty_cycles <-
          st.stats.Stats.frontend_empty_cycles + 1;
        st.cycle_stall <- stall_frontend
      end;
      blocked := true
    end
    else begin
      let h = Ring.front st.fbuf in
      if
        h = st.park_h && st.now < st.park_until
        && st.i_seq.(h) = st.park_seq
      then begin
        (* Parked: known operand-blocked until [park_until] — identical
           bookkeeping to the operand-stall slow path, minus the re-check. *)
        if !issued_now = 0 then begin
          st.stats.Stats.head_stall_cycles <-
            st.stats.Stats.head_stall_cycles + 1;
          st.stats.Stats.operand_stall_cycles <-
            st.stats.Stats.operand_stall_cycles + 1;
          st.cycle_stall <- stall_operand;
          let slot = st.c_site.(h) in
          if slot >= 0 then Stats.add_site_stall st.stats ~slot
        end;
        blocked := true
      end
      else if st.i_fetch_cycle.(h) + cfg.Config.front_stages > st.now then begin
        if !issued_now = 0 then begin
          st.stats.Stats.frontend_empty_cycles <-
            st.stats.Stats.frontend_empty_cycles + 1;
          st.cycle_stall <- stall_frontend
        end;
        blocked := true
      end
      else begin
        let si = st.static.(st.i_pc.(h)) in
        let addr = st.i_addr.(h) in
        let operands_ready = operands_ready st si in
        let fu_ok = fu_left.(si.s_fu) > 0 in
        let mem_ok =
          if si.s_mem_kind = 1 then
            (* counter first: both operands are side-effect-free, and a
               free MSHR (the common case) skips the tag probe *)
            Release.occupancy st.mshr_release < cfg.Config.mshrs
            || Sa_cache.probe (Hierarchy.l1d st.hier) ~addr
          else if si.s_mem_kind = 2 then
            Release.occupancy st.store_release < cfg.Config.store_buffer
          else true
        in
        if operands_ready && fu_ok && mem_ok then begin
          ignore (Ring.pop st.fbuf);
          if cfg.Config.runahead && si.s_mem_kind <> 0 then begin
            let m = Ring.pop st.fbuf_mem in
            assert (m = h)
          end;
          fu_left.(si.s_fu) <- fu_left.(si.s_fu) - 1;
          let slot = st.c_site.(h) in
          if slot >= 0 then begin
            (* how long the condition kept this control instruction from
               resolving, past the front-end minimum: the measured
               per-site ASPCB (operand readiness, not queueing delay) *)
            let readiness = readiness st si in
            Stats.add_site_wait st.stats ~slot
              ~cycles:
                (imax 0
                   (readiness
                   - (st.i_fetch_cycle.(h) + cfg.Config.front_stages)))
          end;
          let latency =
            if si.s_mem_kind = 1 then begin
              let lat =
                Hierarchy.data_access_latency st.hier ~addr ~write:false
              in
              (* a runahead prefetch caps the latency at its arrival
                 (the fill was already initiated); a line the sweep
                 found in L1 started none, and may have left L1 since *)
              let lat =
                if st.i_prefetch.(h) >= 0 then
                  imax cfg.Config.cache.Hierarchy.l1_latency
                    (imin lat (st.i_prefetch.(h) - st.now))
                else lat
              in
              if lat > cfg.Config.cache.Hierarchy.l1_latency then
                Release.schedule st.mshr_release ~at:(st.now + lat);
              st.stats.Stats.loads_issued <- st.stats.Stats.loads_issued + 1;
              lat
            end
            else if si.s_mem_kind = 2 then begin
              let lat =
                Hierarchy.data_access_latency st.hier ~addr ~write:true
              in
              Release.schedule st.store_release ~at:(st.now + lat);
              st.stats.Stats.stores_issued <- st.stats.Stats.stores_issued + 1;
              st.stores_retired <- st.stores_retired + 1;
              1
            end
            else si.s_latency
          in
          let complete = st.now + latency in
          st.i_complete_cycle.(h) <- complete;
          if si.s_dst >= 0 && complete >= st.ready.(si.s_dst) then begin
            st.ready.(si.s_dst) <- complete;
            st.ready_src_load.(si.s_dst) <- si.s_mem_kind land 1
          end;
          Ring.push st.pending h;
          if complete < st.next_complete then st.next_complete <- complete;
          if st.events_enabled then
            st.on_event (Issued { cycle = st.now; seq = st.i_seq.(h) });
          st.stats.Stats.issued <- st.stats.Stats.issued + 1;
          incr issued_now
        end
        else begin
          if !issued_now = 0 then begin
            st.stats.Stats.head_stall_cycles <-
              st.stats.Stats.head_stall_cycles + 1;
            if not operands_ready then begin
              st.stats.Stats.operand_stall_cycles <-
                st.stats.Stats.operand_stall_cycles + 1;
              st.cycle_stall <- stall_operand;
              let slot = st.c_site.(h) in
              if slot >= 0 then Stats.add_site_stall st.stats ~slot
            end
            else if not fu_ok then begin
              st.stats.Stats.fu_stall_cycles <-
                st.stats.Stats.fu_stall_cycles + 1;
              st.cycle_stall <- stall_fu
            end
            else begin
              st.stats.Stats.mem_struct_stall_cycles <-
                st.stats.Stats.mem_struct_stall_cycles + 1;
              st.cycle_stall <- stall_mem
            end
          end;
          if not operands_ready then begin
            (* Park the head until its operands can be ready: nothing
               younger can issue past it, so this bound is stable. *)
            st.park_h <- h;
            st.park_seq <- st.i_seq.(h);
            st.park_until <- readiness st si
          end;
          blocked := true
        end
      end
    end
  done;
  (* Runahead-style prefetch under a full stall: walk the younger loads
     and stores, whose addresses are known (captured at fetch), through
     the fetch buffer's memory-entry index [fbuf_mem], and start their
     fills. An entry whose line is in L1 needs none and is marked
     [pf_in_l1], so no later sweep looks at it again; one refused for
     want of a free MSHR stays [pf_none], and a later sweep retries
     it. While [now] < [sweep_bound] every unprefetched memory entry is
     known operand-blocked ([ready] cycles only rise outside
     {!Machine_state.rebuild_scoreboard}, which resets the bound) or
     waiting for an MSHR to release, so the walk is a no-op and is
     skipped; a completed walk recomputes the bound from the entries it
     leaves unprefetched. *)
  if
    cfg.Config.runahead && !issued_now = 0
    && Ring.length st.fbuf > 0
    && st.now >= st.sweep_bound
  then begin
    let budget = ref 2 in
    let bound = ref max_int in
    let mem = st.fbuf_mem in
    let n = Ring.length mem in
    let k = ref 0 in
    while !budget > 0 && !k < n do
      let h = Ring.get mem !k in
      if st.i_prefetch.(h) = pf_none then begin
        let si = st.static.(st.i_pc.(h)) in
        if operands_ready st si then begin
          (* real runahead can only compute addresses whose inputs are
             available; chases behind pending loads stay opaque *)
          let addr = st.i_addr.(h) in
          if Sa_cache.probe (Hierarchy.l1d st.hier) ~addr then
            st.i_prefetch.(h) <- pf_in_l1
          else if Release.occupancy st.mshr_release < cfg.Config.mshrs
          then begin
            let lat =
              Hierarchy.data_access_latency st.hier ~addr ~write:false
            in
            st.i_prefetch.(h) <- st.now + lat;
            Release.schedule st.mshr_release ~at:(st.now + lat);
            st.stats.Stats.runahead_prefetches <-
              st.stats.Stats.runahead_prefetches + 1;
            decr budget
          end
          else begin
            let r = Release.next_release st.mshr_release in
            if r < !bound then bound := r
          end
        end
        else begin
          let r = readiness st si in
          if r < !bound then bound := r
        end
      end;
      incr k
    done;
    (* Budget exhausted with memory entries left unexamined: bound
       unknown. *)
    st.sweep_bound <- (if !k < n then 0 else !bound)
  end
