(* Deeper corner-case coverage: structural-hazard limits and penalty knobs
   in the timing model, predictor capacity/aliasing effects, and the
   calibration invariants the workload generator must uphold. *)

open Bv_isa
open Bv_ir
open Bv_pipeline

let r = Reg.make
let movi d v = Instr.Mov { dst = r d; src = Instr.Imm v }
let addi d a v = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Imm v }
let ld d b o = Instr.Load { dst = r d; base = r b; offset = o; speculative = false }
let st s b o = Instr.Store { src = r s; base = r b; offset = o }
let block ?(body = []) label term = Block.make ~label ~body ~term

let image ?segments ?mem_words procs =
  Layout.program (Program.make ?segments ?mem_words ~main:"m" procs)

let interp_digest img = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img)

(* a loop of [body] over n iterations *)
let loop_image ?segments ?mem_words ~n body =
  image ?segments ?mem_words
    [ Proc.make ~name:"m"
        [ block ~body:[ movi 1 0 ] "e" (Term.Jump "loop");
          block ~body "loop" (Term.Jump "latch");
          block
            ~body:
              [ addi 1 1 1;
                Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1;
                            src2 = Instr.Imm n }
              ]
            "latch"
            (Term.Branch
               { on = true; src = r 5; taken = "loop"; not_taken = "out";
                 id = 1 });
          block "out" Term.Halt
        ]
    ]

(* ------------------------------------------------- structural hazards *)

let test_store_buffer_saturation () =
  let body = List.init 8 (fun k -> st 1 0 (8 * k)) in
  let img = loop_image ~mem_words:16 ~n:100 body in
  let want = interp_digest img in
  let tiny = { Config.four_wide with Config.store_buffer = 1 } in
  let res_tiny = Machine.run ~config:tiny img in
  let res_big = Machine.run ~config:Config.four_wide img in
  Alcotest.(check int) "digest tiny" want res_tiny.Machine.arch_digest;
  Alcotest.(check bool) "structural stalls appear" true
    (res_tiny.Machine.stats.Stats.mem_struct_stall_cycles
    > res_big.Machine.stats.Stats.mem_struct_stall_cycles);
  Alcotest.(check bool) "and cost cycles" true
    (res_tiny.Machine.stats.Stats.cycles > res_big.Machine.stats.Stats.cycles)

let test_mshr_limit () =
  (* strided misses: each load touches a new line over a 1 MB span *)
  let body =
    List.init 6 (fun k ->
        [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 9 };
          ld (10 + k) 2 (k * 65536)
        ])
    |> List.concat
  in
  let img = loop_image ~mem_words:(1 lsl 17) ~n:200 body in
  let want = interp_digest img in
  let one = { Config.four_wide with Config.mshrs = 1 } in
  let res_one = Machine.run ~config:one img in
  let res_many = Machine.run ~config:Config.four_wide img in
  Alcotest.(check int) "digest" want res_one.Machine.arch_digest;
  Alcotest.(check bool) "serialised misses cost cycles" true
    (res_one.Machine.stats.Stats.cycles > res_many.Machine.stats.Stats.cycles)

let test_fetch_buffer_size () =
  let body = List.init 12 (fun k -> movi (10 + (k mod 8)) k) in
  let img = loop_image ~n:300 body in
  let tiny = { Config.four_wide with Config.fetch_buffer = 4 } in
  let res_tiny = Machine.run ~config:tiny img in
  let res_big = Machine.run ~config:Config.four_wide img in
  Alcotest.(check int) "digest agrees" res_big.Machine.arch_digest
    res_tiny.Machine.arch_digest;
  Alcotest.(check bool) "small buffer no faster" true
    (res_tiny.Machine.stats.Stats.cycles
    >= res_big.Machine.stats.Stats.cycles)

(* -------------------------------------------------------- penalty knobs *)

let test_taken_bubble_cost () =
  (* a tight loop is dominated by taken-branch bubbles *)
  let img = loop_image ~n:2000 [ movi 2 1 ] in
  let cheap = { Config.four_wide with Config.taken_bubble = 0 } in
  let costly = { Config.four_wide with Config.taken_bubble = 4 } in
  let a = (Machine.run ~config:cheap img).Machine.stats.Stats.cycles in
  let b = (Machine.run ~config:costly img).Machine.stats.Stats.cycles in
  Alcotest.(check bool) (Printf.sprintf "bubbles cost (%d < %d)" a b) true
    (a + 2000 <= b)

let test_front_depth_raises_mispredict_cost () =
  let n = 2000 in
  let rng = Bv_workloads.Rng.create ~seed:3 in
  let stream = Array.init n (fun _ -> Bv_workloads.Rng.below rng 2) in
  let body =
    [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
      ld 4 2 0;
      Instr.Cmp { op = Instr.Ne; dst = r 6; src1 = r 4; src2 = Instr.Imm 0 }
    ]
  in
  let img =
    image ~mem_words:(n + 8)
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0 ] "e" (Term.Jump "loop");
            block ~body "loop"
              (Term.Branch
                 { on = true; src = r 6; taken = "t"; not_taken = "nt"; id = 7 });
            block ~body:[ addi 3 3 1 ] "nt" (Term.Jump "latch");
            block ~body:[ addi 3 3 2 ] "t" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1;
                              src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch
                 { on = true; src = r 5; taken = "loop"; not_taken = "out";
                   id = 8 });
            block "out" Term.Halt
          ]
      ]
  in
  let shallow = { Config.four_wide with Config.front_stages = 3 } in
  let deep = { Config.four_wide with Config.front_stages = 12 } in
  let a = Machine.run ~config:shallow img in
  let b = Machine.run ~config:deep img in
  Alcotest.(check bool) "same mispredict counts (roughly)" true
    (abs
       (a.Machine.stats.Stats.branch_mispredicts
       - b.Machine.stats.Stats.branch_mispredicts)
    < n / 10);
  Alcotest.(check bool) "deep pipe pays more" true
    (b.Machine.stats.Stats.cycles
    > a.Machine.stats.Stats.cycles
      + (2 * a.Machine.stats.Stats.branch_mispredicts))

let test_memory_latency_knob () =
  let cache_fast =
    { Bv_cache.Hierarchy.default_config with Bv_cache.Hierarchy.mem_latency = 20 }
  in
  let cache_slow =
    { Bv_cache.Hierarchy.default_config with Bv_cache.Hierarchy.mem_latency = 400 }
  in
  (* random misses over 8 MB *)
  let body =
    [ Instr.Alu { op = Instr.Mul; dst = r 9; src1 = r 9; src2 = Instr.Imm 2862933555777941757 };
      Instr.Alu { op = Instr.Add; dst = r 9; src1 = r 9; src2 = Instr.Imm 3037000493 };
      Instr.Alu { op = Instr.Shr; dst = r 2; src1 = r 9; src2 = Instr.Imm 20 };
      Instr.Alu { op = Instr.And; dst = r 2; src1 = r 2; src2 = Instr.Imm ((1 lsl 20) - 1) };
      Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 2; src2 = Instr.Imm 3 };
      ld 4 2 0;
      (* feed the loaded value back into the pointer chain so each miss
         serialises with the next (a true pointer chase) *)
      Instr.Alu { op = Instr.Add; dst = r 9; src1 = r 9; src2 = Instr.Reg (r 4) }
    ]
  in
  let img = loop_image ~mem_words:(1 lsl 20) ~n:300 body in
  let fast =
    Machine.run ~config:(Config.make ~cache:cache_fast ~width:4 ()) img
  in
  let slow =
    Machine.run ~config:(Config.make ~cache:cache_slow ~width:4 ()) img
  in
  Alcotest.(check bool) "memory latency dominates" true
    (slow.Machine.stats.Stats.cycles > fast.Machine.stats.Stats.cycles * 2)

(* strided misses over 16 MB with a serial compute chain *)
let strided_miss_image () =
  let body =
    [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 10 };
      ld 4 2 0;
      Instr.Alu { op = Instr.Add; dst = r 7; src1 = r 7; src2 = Instr.Reg (r 4) };
      Instr.Alu { op = Instr.Mul; dst = r 7; src1 = r 7; src2 = Instr.Imm 3 }
    ]
  in
  loop_image ~mem_words:(1 lsl 21) ~n:400 body

let test_runahead_prefetch () =
  (* prefetching under the stall must keep semantics and save cycles *)
  let img = strided_miss_image () in
  let want = interp_digest img in
  let off = Machine.run ~config:Config.four_wide img in
  let on_cfg = { Config.four_wide with Config.runahead = true } in
  let on_res = Machine.run ~config:on_cfg img in
  Alcotest.(check int) "digest off" want off.Machine.arch_digest;
  Alcotest.(check int) "digest on" want on_res.Machine.arch_digest;
  Alcotest.(check bool) "prefetches happened" true
    (on_res.Machine.stats.Stats.runahead_prefetches > 100);
  Alcotest.(check bool)
    (Printf.sprintf "faster with runahead (%d < %d)"
       on_res.Machine.stats.Stats.cycles off.Machine.stats.Stats.cycles)
    true
    (on_res.Machine.stats.Stats.cycles < off.Machine.stats.Stats.cycles);
  Alcotest.(check int) "no prefetches when off" 0
    off.Machine.stats.Stats.runahead_prefetches

let test_runahead_mshr_bound () =
  (* The strided loop is a chain of misses to memory, so without
     runahead the run costs their summed latency whatever the MSHR
     count. A fill holds its MSHR for its whole latency: with [m] MSHRs
     at most [m] fills overlap, so runahead can divide that cost by [m]
     at most (10% slack for the overlapped compute). A prefetch refused
     for want of an MSHR must not be charged as an L1 hit. *)
  let img = strided_miss_image () in
  let want = interp_digest img in
  let cycles config =
    let res = Machine.run ~config img in
    Alcotest.(check int) "digest" want res.Machine.arch_digest;
    res.Machine.stats.Stats.cycles
  in
  List.iter
    (fun mshrs ->
      let config = { Config.four_wide with Config.mshrs } in
      let off = cycles config in
      let on = cycles { config with Config.runahead = true } in
      Alcotest.(check bool)
        (Printf.sprintf "mshrs %d: runahead %d cycles, without %d" mshrs on
           off)
        true
        (on * mshrs * 10 >= off * 9))
    [ 1; 2; 4 ]

let test_runahead_l1_mark_outlived () =
  (* A 1-way, 2-set L1, so lines 0 and 2 share a set. Block [e] loads
     line 0 into L1; its padding puts [f] on the next I-cache line, whose
     miss delays [f]'s fetch well past that load. In [f] the head waits on
     a load of line 1 from memory, and behind it the sweep finds line 0
     in L1 for the load at [second] and then prefetches line 2, which
     evicts line 0. The load at [second] started no fill, so when it
     issues it pays the L2 hit, not the L1 latency. (The last add keeps
     the halt from ending the run before that load completes.) *)
  let cache =
    { Bv_cache.Hierarchy.default_config with
      Bv_cache.Hierarchy.l1d_bytes = 128;
      l1d_ways = 1
    }
  in
  let config =
    { (Config.make ~cache ~width:4 ()) with Config.runahead = true }
  in
  let img =
    image ~mem_words:64
      [ Proc.make ~name:"m"
          [ block ~body:(ld 6 1 0 :: List.init 20 (fun _ -> Instr.Nop)) "e"
              (Term.Jump "f");
            block
              ~body:[ ld 2 1 64; addi 3 2 1; ld 4 1 0; ld 5 1 128; addi 7 4 1 ]
              "f" Term.Halt
          ]
      ]
  in
  let second = Array.length img.Layout.code - 4 in
  let seq = ref (-1) and issued = ref (-1) and completed = ref (-1) in
  let on_event = function
    | Machine.Fetched { seq = s; pc; _ } -> if pc = second then seq := s
    | Machine.Issued { cycle; seq = s } -> if s = !seq then issued := cycle
    | Machine.Completed { cycle; seq = s; _ } ->
      if s = !seq then completed := cycle
    | Machine.Squashed _ | Machine.Redirected _ -> ()
  in
  let res = Machine.run ~on_event ~config img in
  Alcotest.(check int) "digest" (interp_digest img) res.Machine.arch_digest;
  Alcotest.(check int) "second load of line 0 pays L1 + L2"
    (cache.Bv_cache.Hierarchy.l1_latency + cache.Bv_cache.Hierarchy.l2_latency)
    (!completed - !issued)

(* ------------------------------------------------------------ predictors *)

let drive (p : Bv_bpred.Predictor.t) streams =
  let n = Array.length streams.(0) in
  let correct = Array.make (Array.length streams) 0 in
  for i = 0 to n - 1 do
    Array.iteri
      (fun s stream ->
        let taken = stream.(i) in
        let pc = 0x80 + (s * 4) in
        let pred, meta = p.Bv_bpred.Predictor.predict ~pc ~outcome:taken in
        if pred = taken then correct.(s) <- correct.(s) + 1
        else p.Bv_bpred.Predictor.recover meta ~taken;
        p.Bv_bpred.Predictor.update meta ~pc ~taken)
      streams
  done;
  Array.map (fun c -> Float.of_int c /. Float.of_int n) correct

let test_gshare_capacity_aliasing () =
  (* many sites with conflicting histories: a tiny table aliases *)
  let mk () =
    Array.init 12 (fun s ->
        Array.init 8000 (fun i -> (i + s) mod (3 + (s mod 3)) = 0))
  in
  let small =
    drive (Bv_bpred.Gshare.create ~table_bits:5 ~history_bits:5 ()) (mk ())
  in
  let big = drive (Bv_bpred.Gshare.create ()) (mk ()) in
  let avg a = Array.fold_left ( +. ) 0.0 a /. Float.of_int (Array.length a) in
  Alcotest.(check bool)
    (Printf.sprintf "capacity matters (%.3f < %.3f)" (avg small) (avg big))
    true
    (avg small +. 0.05 < avg big)

let test_tournament_mixed_population () =
  (* biased + patterned sites together: the chooser serves both *)
  let rngs = Bv_workloads.Rng.create ~seed:4 in
  let streams =
    Array.init 8 (fun s ->
        if s < 4 then
          Array.init 8000 (fun _ -> Bv_workloads.Rng.bernoulli rngs 0.95)
        else Array.init 8000 (fun i -> i mod 4 < 2))
  in
  let acc = drive (Bv_bpred.Tournament.create ()) streams in
  Array.iteri
    (fun s a ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d accuracy %.3f" s a)
        true
        (if s < 4 then a > 0.85 else a > 0.9))
    acc

let test_tage_phase_change () =
  (* the pattern flips mid-stream; tage re-learns *)
  let stream =
    Array.init 30000 (fun i ->
        if i < 15000 then i mod 5 < 2 else i mod 5 >= 2)
  in
  let p = Bv_bpred.Tage.create () in
  let late_correct = ref 0 in
  Array.iteri
    (fun i taken ->
      let pred, meta = p.Bv_bpred.Predictor.predict ~pc:0x44 ~outcome:taken in
      if pred = taken then begin
        if i > 25000 then incr late_correct end
      else p.Bv_bpred.Predictor.recover meta ~taken;
      p.Bv_bpred.Predictor.update meta ~pc:0x44 ~taken)
    stream;
  let late = Float.of_int !late_correct /. 5000.0 in
  Alcotest.(check bool) (Printf.sprintf "re-learned (%.3f)" late) true
    (late > 0.9)

(* --------------------------------------------------- workload invariants *)

let calib_spec =
  Bv_workloads.Spec.make ~name:"calib" ~suite:Bv_workloads.Spec.Int_2006
    ~seed:31
    ~branch_classes:
      [ Bv_workloads.Spec.cls ~count:6 ~taken_rate:0.6 ~predictability:0.96 ();
        Bv_workloads.Spec.cls ~iid:true ~count:6 ~taken_rate:0.93
          ~predictability:0.93 ()
      ]
    ~inner_n:128 ~reps:6 ()

let calib_profile =
  lazy
    (let img =
       Layout.program (Bv_workloads.Gen.generate ~input:0 calib_spec)
     in
     Bv_profile.Profile.collect
       ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
       img)

let hammock_sites profile =
  List.filter
    (fun s -> s.Bv_profile.Profile.id < 900_000)
    (Bv_profile.Profile.sites_by_execution profile)

let test_calibration_selection_invariant () =
  (* the selection invariant behind every experiment: eligible sites carry
     a margin >= 5pp, biased sites do not *)
  let profile = Lazy.force calib_profile in
  let sites = hammock_sites profile in
  Alcotest.(check int) "12 hammocks" 12 (List.length sites);
  let eligible, biased =
    List.partition (fun s -> Bv_profile.Profile.bias s < 0.8) sites
  in
  Alcotest.(check int) "6 unbiased" 6 (List.length eligible);
  List.iter
    (fun s ->
      let margin =
        Bv_profile.Profile.predictability s -. Bv_profile.Profile.bias s
      in
      Alcotest.(check bool)
        (Printf.sprintf "eligible margin %.3f" margin)
        true (margin >= 0.05))
    eligible;
  List.iter
    (fun s ->
      let margin =
        Bv_profile.Profile.predictability s -. Bv_profile.Profile.bias s
      in
      Alcotest.(check bool)
        (Printf.sprintf "biased margin %.3f" margin)
        true (margin < 0.05))
    biased

let test_calibration_bias_targets () =
  let profile = Lazy.force calib_profile in
  List.iter
    (fun s ->
      let b = Bv_profile.Profile.bias s in
      Alcotest.(check bool) (Printf.sprintf "bias %.3f plausible" b) true
        ((b > 0.5 && b < 0.72) || (b > 0.85 && b < 0.99)))
    (hammock_sites profile)

let test_cold_sites_execute_less () =
  let profile = Lazy.force calib_profile in
  let sites = hammock_sites profile in
  let eligible, biased =
    List.partition (fun s -> Bv_profile.Profile.bias s < 0.8) sites
  in
  let execs l =
    List.fold_left (fun a s -> a + s.Bv_profile.Profile.executed) 0 l
    / List.length l
  in
  Alcotest.(check bool) "hot sites run more" true
    (execs eligible >= 2 * execs biased)

let test_cond_chase_raises_aspcb () =
  let mk chase =
    let spec =
      Bv_workloads.Spec.make
        ~name:(if chase then "chase" else "nochase")
        ~suite:Bv_workloads.Spec.Int_2006 ~seed:33
        ~branch_classes:
          [ Bv_workloads.Spec.cls ~count:4 ~taken_rate:0.6
              ~predictability:0.95 ()
          ]
        ~footprint_kb:1024 ~chase_frac:0.2 ~cond_chase:chase ~inner_n:64
        ~reps:4 ()
    in
    let b = Bv_harness.Runner.prepare spec in
    let base =
      Bv_harness.Runner.simulate ~config:(Config.make ~width:4 ())
        (Bv_harness.Runner.baseline b ~input:1)
    in
    Bv_harness.Metrics.aspcb b ~base
  in
  let with_chase = mk true and without = mk false in
  Alcotest.(check bool)
    (Printf.sprintf "aspcb %.1f > %.1f" with_chase without)
    true
    (with_chase > without +. 5.0)

let test_fp_mix_generates_fpu () =
  let spec =
    Bv_workloads.Spec.make ~name:"fpmix" ~suite:Bv_workloads.Spec.Fp_2006
      ~seed:34
      ~branch_classes:
        [ Bv_workloads.Spec.cls ~count:4 ~taken_rate:0.6 ~predictability:0.95
            ()
        ]
      ~fp_mix:0.9 ~inner_n:32 ~reps:2 ()
  in
  let img = Layout.program (Bv_workloads.Gen.generate spec) in
  let fpu =
    Array.fold_left
      (fun n i -> match i with Instr.Fpu _ -> n + 1 | _ -> n)
      0 img.Layout.code
  in
  let alu =
    Array.fold_left
      (fun n i -> match i with Instr.Alu _ -> n + 1 | _ -> n)
      0 img.Layout.code
  in
  Alcotest.(check bool)
    (Printf.sprintf "fp-heavy mix (%d fpu vs %d alu)" fpu alu)
    true (fpu > alu / 4)

let test_scale_env_changes_reps () =
  Alcotest.(check (float 0.0001)) "default scale" 1.0
    (Bv_harness.Runner.scale ())

let () =
  Alcotest.run "depth"
    [ ( "structural hazards",
        [ Alcotest.test_case "store buffer" `Quick test_store_buffer_saturation;
          Alcotest.test_case "mshr" `Quick test_mshr_limit;
          Alcotest.test_case "fetch buffer" `Quick test_fetch_buffer_size
        ] );
      ( "penalties",
        [ Alcotest.test_case "taken bubble" `Quick test_taken_bubble_cost;
          Alcotest.test_case "front depth" `Quick
            test_front_depth_raises_mispredict_cost;
          Alcotest.test_case "memory latency" `Quick test_memory_latency_knob;
          Alcotest.test_case "runahead prefetch" `Quick test_runahead_prefetch;
          Alcotest.test_case "runahead under few MSHRs" `Quick
            test_runahead_mshr_bound;
          Alcotest.test_case "runahead L1 find outlived by its line" `Quick
            test_runahead_l1_mark_outlived
        ] );
      ( "predictors",
        [ Alcotest.test_case "gshare aliasing" `Slow
            test_gshare_capacity_aliasing;
          Alcotest.test_case "tournament mix" `Slow
            test_tournament_mixed_population;
          Alcotest.test_case "tage phase change" `Slow test_tage_phase_change
        ] );
      ( "workload calibration",
        [ Alcotest.test_case "selection invariant" `Slow
            test_calibration_selection_invariant;
          Alcotest.test_case "bias targets" `Slow test_calibration_bias_targets;
          Alcotest.test_case "hot/cold split" `Slow
            test_cold_sites_execute_less;
          Alcotest.test_case "cond-chase ASPCB" `Slow
            test_cond_chase_raises_aspcb;
          Alcotest.test_case "fp mix" `Quick test_fp_mix_generates_fpu;
          Alcotest.test_case "scale default" `Quick test_scale_env_changes_reps
        ] )
    ]
