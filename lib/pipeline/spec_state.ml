open Bv_isa
open Machine_state

(* ---- speculative memory (wrong-path safe) ----------------------------- *)

let log_push st w old =
  if st.log_len = Array.length st.log_addr then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    st.log_addr <- grow st.log_addr;
    st.log_val <- grow st.log_val
  end;
  st.log_addr.(st.log_len) <- w;
  st.log_val.(st.log_len) <- old;
  st.log_len <- st.log_len + 1

let log_undo_to st abs_pos =
  while st.log_base + st.log_len > abs_pos do
    st.log_len <- st.log_len - 1;
    st.mem.{st.log_addr.(st.log_len)} <- st.log_val.(st.log_len)
  done

let log_trim st =
  if st.live_checkpoints = 0 then begin
    st.log_base <- st.log_base + st.log_len;
    st.log_len <- 0
  end

let log_depth st = st.log_len

let spec_load st ~addr =
  if addr land 7 <> 0 || addr < 0 || addr / 8 >= st.mem_words then 0
  else st.mem.{addr / 8}

let spec_store st ~addr v =
  if addr land 7 = 0 && addr >= 0 && addr / 8 < st.mem_words then begin
    let w = addr / 8 in
    log_push st w st.mem.{w};
    st.mem.{w} <- v
  end

(* ---- checkpoints ------------------------------------------------------ *)

(* Pop a recycled checkpoint off the free stack, or add one to the pool:
   the pool grows only to the run's peak of live checkpoints. *)
let alloc_checkpoint st =
  if st.ck_free_len > 0 then begin
    st.ck_free_len <- st.ck_free_len - 1;
    st.ck_free.(st.ck_free_len)
  end
  else begin
    let i = Array.length st.ckpts in
    let ck =
      { ck_regs = Array.make Reg.count 0;
        ck_undo = 0;
        ck_stack = [];
        ck_ras_depth = 0;
        ck_dbb = Dbb.new_snapshot st.dbb;
        ck_halted = false
      }
    in
    st.ckpts <- Array.append st.ckpts [| ck |];
    (* the free stack is empty here; size it for the whole pool *)
    st.ck_free <- Array.make (i + 1) 0;
    i
  end

let make_checkpoint st =
  st.live_checkpoints <- st.live_checkpoints + 1;
  let i = alloc_checkpoint st in
  let ck = st.ckpts.(i) in
  (* plain int stores: [Array.blit] into an old array runs [caml_modify]
     per word *)
  for r = 0 to Reg.count - 1 do
    ck.ck_regs.(r) <- st.regs.(r)
  done;
  ck.ck_undo <- st.log_base + st.log_len;
  ck.ck_stack <- st.call_stack;
  ck.ck_ras_depth <- Bv_bpred.Ras.depth st.ras;
  Dbb.snapshot st.dbb ~into:ck.ck_dbb;
  ck.ck_halted <- st.spec_halted;
  i

let release_checkpoint st h =
  let i = st.c_ckpt.(h) in
  if i >= 0 then begin
    st.c_ckpt.(h) <- -1;
    st.ck_free.(st.ck_free_len) <- i;
    st.ck_free_len <- st.ck_free_len + 1;
    st.live_checkpoints <- st.live_checkpoints - 1
  end

(* ---- misprediction flush ---------------------------------------------- *)

(* Index of the first entry of [ring] younger than [from_seq]: the ring
   is in seq order, so the squash set is the tail from there on. *)
let squash_start st ring ~from_seq =
  let cut = ref (Ring.length ring) in
  while !cut > 0 && st.i_seq.(Ring.get ring (!cut - 1)) > from_seq do
    decr cut
  done;
  !cut

let flush st ~from_seq ~checkpoint ~new_pc =
  st.stats.Stats.redirects <- st.stats.Stats.redirects + 1;
  for r = 0 to Reg.count - 1 do
    st.regs.(r) <- checkpoint.ck_regs.(r)
  done;
  log_undo_to st checkpoint.ck_undo;
  st.call_stack <- checkpoint.ck_stack;
  (* RAS repair: recover the stack depth (entries pushed on the wrong
     path are popped; deeper corruption is accepted, as in hardware). *)
  while Bv_bpred.Ras.depth st.ras > checkpoint.ck_ras_depth do
    ignore (Bv_bpred.Ras.pop st.ras)
  done;
  Dbb.restore st.dbb checkpoint.ck_dbb;
  st.spec_halted <- checkpoint.ck_halted;
  if st.events_enabled then
    st.on_event (Redirected { cycle = st.now; after_seq = from_seq; new_pc });
  (* Wrong-path fetches were only ever reachable from the fetch buffer, so
     they go straight back to the free list. *)
  let len = Ring.length st.fbuf in
  let cut = squash_start st st.fbuf ~from_seq in
  for k = cut to len - 1 do
    let h = Ring.get st.fbuf k in
    st.stats.Stats.squashed_fetched <- st.stats.Stats.squashed_fetched + 1;
    if st.events_enabled then
      st.on_event (Squashed { cycle = st.now; seq = st.i_seq.(h) });
    release_checkpoint st h;
    recycle_inflight st h
  done;
  Ring.drop_tail st.fbuf (len - cut);
  if st.cfg.Config.runahead then begin
    let len = Ring.length st.fbuf_mem in
    Ring.drop_tail st.fbuf_mem (len - squash_start st st.fbuf_mem ~from_seq)
  end;
  (* A squashed entry whose complete_cycle has arrived is also sitting in
     the completion scratch (collected before this flush ran) and will be
     recycled there; one still in flight is reachable from nowhere else
     once dropped, so it is recycled here. *)
  let len = Ring.length st.pending in
  let cut = squash_start st st.pending ~from_seq in
  for k = cut to len - 1 do
    let h = Ring.get st.pending k in
    st.i_squashed.(h) <- 1;
    if st.events_enabled then
      st.on_event (Squashed { cycle = st.now; seq = st.i_seq.(h) });
    st.stats.Stats.squashed_issued <- st.stats.Stats.squashed_issued + 1;
    if st.static.(st.i_pc.(h)).s_mem_kind = 2 then
      st.stores_retired <- st.stores_retired - 1;
    release_checkpoint st h;
    if st.i_complete_cycle.(h) > st.now then recycle_inflight st h
  done;
  Ring.drop_tail st.pending (len - cut);
  rebuild_scoreboard st;
  st.fetch_pc <- new_pc;
  st.fetch_stall_until <- st.now + 1;
  st.fetch_stall_src <- fsrc_redirect;
  st.current_line <- -1;
  st.shadow_fetches <- 16;
  if st.acct_enabled then st.in_recovery <- true

let mispredict_flush st h =
  let i = st.c_ckpt.(h) in
  assert (i >= 0);
  if st.acct_enabled then st.recovery_pc <- st.i_pc.(h);
  flush st ~from_seq:st.i_seq.(h) ~checkpoint:st.ckpts.(i)
    ~new_pc:st.c_redirect.(h);
  (* only now that the flush has read it can the checkpoint be reused *)
  release_checkpoint st h
