(* Spec_state in isolation: the undo-logged speculative memory, the
   checkpoint/rollback machinery and the DBB tail-pointer repair, each
   driven directly against a Machine_state record rather than through a
   full simulation. *)

open Bv_pipeline
open Machine_state

let tiny_image =
  lazy
    (let spec =
       Bv_workloads.Spec.make ~name:"specstate" ~suite:Bv_workloads.Spec.Int_2006
         ~seed:11
         ~branch_classes:
           [ Bv_workloads.Spec.cls ~count:2 ~taken_rate:0.6
               ~predictability:0.9 ()
           ]
         ~inner_n:16 ~reps:1 ()
     in
     Bv_ir.Layout.program (Bv_workloads.Gen.generate ~input:1 spec))

let fresh_state () =
  Machine_state.create ~config:Config.four_wide
    ~on_event:(fun _ -> ())
    (Lazy.force tiny_image)

(* A minimal in-flight control instruction carrying checkpoint [ckpt]
   (-1: none), good enough for release_checkpoint / flush bookkeeping:
   allocates a pool row and returns its handle. *)
let ctrl_inflight st ~seq ckpt =
  let h = Machine_state.alloc_inflight st in
  st.i_seq.(h) <- seq;
  st.i_pc.(h) <- 0;
  st.i_fetch_cycle.(h) <- st.now;
  st.i_addr.(h) <- -1;
  st.i_complete_cycle.(h) <- -1;
  st.i_squashed.(h) <- 0;
  st.i_prefetch.(h) <- -1;
  st.c_kind.(h) <- ck_branch;
  st.c_mispredict.(h) <- (if ckpt >= 0 then 1 else 0);
  st.c_redirect.(h) <- 0;
  st.c_site.(h) <- -1;
  st.c_actual.(h) <- 0;
  st.c_dbb_slot.(h) <- -1;
  st.c_ckpt.(h) <- ckpt;
  h

(* -------------------------------------------------- checkpoint round-trip *)

let test_roundtrip () =
  let st = fresh_state () in
  (* establish a pre-checkpoint architectural state *)
  st.regs.(3) <- 111;
  st.regs.(7) <- 222;
  Spec_state.spec_store st ~addr:64 1001;
  Spec_state.spec_store st ~addr:128 1002;
  st.call_stack <- [ 0xAA ];
  Bv_bpred.Ras.push st.ras 0xAA;
  let ck = Spec_state.make_checkpoint st in
  Alcotest.(check int) "one live checkpoint" 1 st.live_checkpoints;
  (* wrong-path damage *)
  st.regs.(3) <- -1;
  st.regs.(7) <- -2;
  Spec_state.spec_store st ~addr:64 9999;
  Spec_state.spec_store st ~addr:256 7777;
  st.call_stack <- 0xBB :: st.call_stack;
  Bv_bpred.Ras.push st.ras 0xBB;
  st.spec_halted <- true;
  st.live_checkpoints <- st.live_checkpoints - 1;
  Spec_state.flush st ~from_seq:st.seq ~checkpoint:st.ckpts.(ck) ~new_pc:0x40;
  (* everything rolls back *)
  Alcotest.(check int) "reg 3 restored" 111 st.regs.(3);
  Alcotest.(check int) "reg 7 restored" 222 st.regs.(7);
  Alcotest.(check int) "store at 64 undone" 1001
    (Spec_state.spec_load st ~addr:64);
  Alcotest.(check int) "store at 128 kept" 1002
    (Spec_state.spec_load st ~addr:128);
  Alcotest.(check int) "store at 256 undone" 0
    (Spec_state.spec_load st ~addr:256);
  Alcotest.(check (list int)) "call stack restored" [ 0xAA ] st.call_stack;
  Alcotest.(check int) "RAS depth restored" 1 (Bv_bpred.Ras.depth st.ras);
  Alcotest.(check bool) "halt flag restored" false st.spec_halted;
  Alcotest.(check int) "fetch redirected" 0x40 st.fetch_pc;
  Alcotest.(check int) "fetch bubble" (st.now + 1) st.fetch_stall_until;
  Alcotest.(check int) "redirect counted" 1 st.stats.Stats.redirects

let test_spec_mem_safety () =
  let st = fresh_state () in
  Alcotest.(check int) "misaligned load is 0" 0
    (Spec_state.spec_load st ~addr:3);
  Alcotest.(check int) "out-of-range load is 0" 0
    (Spec_state.spec_load st ~addr:(st.mem_words * 8));
  Spec_state.spec_store st ~addr:5 42;
  Spec_state.spec_store st ~addr:(-8) 42;
  Alcotest.(check int) "bad stores leave no undo entries" 0
    (Spec_state.log_depth st)

(* ------------------------------------------------------ undo-log trimming *)

let test_log_truncation () =
  let st = fresh_state () in
  Spec_state.spec_store st ~addr:0 1;
  Spec_state.spec_store st ~addr:8 2;
  Alcotest.(check int) "two undo entries" 2 (Spec_state.log_depth st);
  let base0 = st.log_base in
  Spec_state.log_trim st;
  Alcotest.(check int) "unpinned log discarded" 0 (Spec_state.log_depth st);
  Alcotest.(check int) "absolute position preserved" (base0 + 2) st.log_base;
  (* a live checkpoint pins the log *)
  let ck = Spec_state.make_checkpoint st in
  Spec_state.spec_store st ~addr:16 3;
  Spec_state.log_trim st;
  Alcotest.(check int) "pinned log survives trim" 1 (Spec_state.log_depth st);
  (* releasing the owning instruction unpins it *)
  Spec_state.release_checkpoint st (ctrl_inflight st ~seq:0 ck);
  Alcotest.(check int) "no live checkpoints" 0 st.live_checkpoints;
  Spec_state.log_trim st;
  Alcotest.(check int) "released log discarded" 0 (Spec_state.log_depth st);
  (* an inflight without a checkpoint must not decrement the count *)
  ignore (Spec_state.make_checkpoint st);
  Spec_state.release_checkpoint st (ctrl_inflight st ~seq:1 (-1));
  Alcotest.(check int) "plain ctrl releases nothing" 1 st.live_checkpoints

(* --------------------------------------------------- DBB pointer recovery *)

let dbb_alloc st pc =
  let slot = Dbb.allocate st.dbb ~pc in
  if slot >= 0 then Dbb.set_taken st.dbb slot true;
  slot

let test_dbb_recovery () =
  let st = fresh_state () in
  (* one committed-path predict already sits in the buffer *)
  let slot0 = dbb_alloc st 0x100 in
  Alcotest.(check bool) "first allocation succeeds" true (slot0 >= 0);
  let ck = Spec_state.make_checkpoint st in
  (* wrong path: its resolve claims the entry, more predicts allocate *)
  let c = Dbb.claim_newest st.dbb in
  if c < 0 then Alcotest.fail "expected a claimable entry";
  Alcotest.(check int) "claimed the pre-checkpoint entry" 0x100
    (Dbb.slot_pc st.dbb c);
  ignore (dbb_alloc st 0x200);
  ignore (dbb_alloc st 0x300);
  Alcotest.(check int) "occupancy before flush" 3 (Dbb.occupancy st.dbb);
  st.live_checkpoints <- st.live_checkpoints - 1;
  Spec_state.flush st ~from_seq:st.seq ~checkpoint:st.ckpts.(ck) ~new_pc:0;
  (* tail pointer recovered: wrong-path allocations gone, the claim on the
     surviving entry reverted so the correct-path resolve can re-claim it *)
  Alcotest.(check int) "occupancy after flush" 1 (Dbb.occupancy st.dbb);
  let c2 = Dbb.claim_newest st.dbb in
  if c2 < 0 then Alcotest.fail "surviving entry should be claimable again";
  Alcotest.(check int) "claim reverted to pre-checkpoint entry" 0x100
    (Dbb.slot_pc st.dbb c2)

let () =
  Alcotest.run "bv_spec_state"
    [ ( "checkpoint rollback",
        [ Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "wrong-path memory safety" `Quick
            test_spec_mem_safety
        ] );
      ( "undo log",
        [ Alcotest.test_case "truncation and pinning" `Quick
            test_log_truncation
        ] );
      ( "dbb",
        [ Alcotest.test_case "tail-pointer recovery" `Quick test_dbb_recovery
        ] )
    ]
