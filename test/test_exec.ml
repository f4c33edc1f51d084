open Bv_exec
open Bv_isa
open Bv_ir

let r = Reg.make
let movi d v = Instr.Mov { dst = r d; src = Instr.Imm v }
let add d a b = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Reg (r b) }
let addi d a v = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Imm v }
let block ?(body = []) label term = Block.make ~label ~body ~term

let program ?segments ?mem_words procs main =
  Layout.program (Program.make ?segments ?mem_words ~main procs)

let test_arith () =
  let image =
    program
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 21; add 2 1 1; addi 3 2 (-2) ] "e" Term.Halt ]
      ]
      "m"
  in
  let st = Interp.run image in
  Alcotest.(check int) "r2" 42 st.Interp.regs.(2);
  Alcotest.(check int) "r3" 40 st.Interp.regs.(3);
  Alcotest.(check int) "instrs" 4 st.Interp.instr_count;
  Alcotest.(check bool) "halted" true st.Interp.halted

let loop_program n =
  program ~mem_words:4
    [ Proc.make ~name:"m"
        [ block ~body:[ movi 1 0; movi 2 0 ] "e" (Term.Jump "loop");
          block
            ~body:
              [ add 2 2 1; addi 1 1 1;
                Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
              ]
            "loop"
            (Term.Branch
               { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 1 });
          block ~body:[ Instr.Store { src = r 2; base = r 0; offset = 0 } ] "out"
            Term.Halt
        ]
    ]
    "m"

let test_loop () =
  let st = Interp.run (loop_program 10) in
  Alcotest.(check int) "sum 0..9" 45 st.Interp.mem.(0);
  Alcotest.(check int) "stores" 1 st.Interp.store_count

let test_branch_hooks () =
  let count = ref 0 and takens = ref 0 in
  let hooks =
    { Interp.no_hooks with
      Interp.on_branch =
        (fun ~id:_ ~pc:_ ~taken ->
          incr count;
          if taken then incr takens)
    }
  in
  ignore (Interp.run ~hooks (loop_program 10));
  Alcotest.(check int) "branch executions" 10 !count;
  Alcotest.(check int) "taken count" 9 !takens

let test_calls () =
  let image =
    program ~mem_words:4
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 5 ] "e"
              (Term.Call { target = "double"; return_to = "back" });
            block "back" (Term.Call { target = "double"; return_to = "back2" });
            block ~body:[ Instr.Store { src = r 1; base = r 0; offset = 0 } ]
              "back2" Term.Halt
          ];
        Proc.make ~name:"double" [ block ~body:[ add 1 1 1 ] "d0" Term.Ret ]
      ]
      "m"
  in
  let st = Interp.run image in
  Alcotest.(check int) "5*2*2" 20 st.Interp.mem.(0)

let test_ret_underflow_faults () =
  (* [aux] never runs, but its call makes [m] a legal call target so the
     layout-time validator (which rejects a ret in a never-called proc)
     lets the runtime underflow happen. *)
  let image =
    program
      [ Proc.make ~name:"m" [ block "e" Term.Ret ];
        Proc.make ~name:"aux"
          [ block "a0" (Term.Call { target = "m"; return_to = "a1" });
            block "a1" Term.Halt
          ]
      ]
      "m"
  in
  Alcotest.check_raises "fault" (Interp.Fault "ret with empty call stack")
    (fun () -> ignore (Interp.run image))

let test_memory_faults () =
  let bad_store off =
    program ~mem_words:2
      [ Proc.make ~name:"m"
          [ block ~body:[ Instr.Store { src = r 0; base = r 0; offset = off } ]
              "e" Term.Halt
          ]
      ]
      "m"
  in
  Alcotest.check_raises "unaligned" (Interp.Fault "store to invalid address 4")
    (fun () -> ignore (Interp.run (bad_store 4)));
  Alcotest.check_raises "out of range"
    (Interp.Fault "store to invalid address 1600") (fun () ->
      ignore (Interp.run (bad_store 1600)))

let test_speculative_load_suppresses () =
  let image =
    program ~mem_words:2
      [ Proc.make ~name:"m"
          [ block
              ~body:
                [ movi 2 7;
                  Instr.Load
                    { dst = r 2; base = r 0; offset = 99992; speculative = true }
                ]
              "e" Term.Halt
          ]
      ]
      "m"
  in
  let st = Interp.run image in
  Alcotest.(check int) "suppressed to zero" 0 st.Interp.regs.(2)

let test_segments_initialise_memory () =
  let image =
    program
      ~segments:[ { Program.base = 8; contents = [| 11; 22 |] } ]
      ~mem_words:4
      [ Proc.make ~name:"m"
          [ block
              ~body:
                [ Instr.Load { dst = r 1; base = r 0; offset = 16; speculative = false } ]
              "e" Term.Halt
          ]
      ]
      "m"
  in
  let st = Interp.run image in
  Alcotest.(check int) "segment word" 22 st.Interp.regs.(1)

(* decomposed-branch semantics: the predict direction must not matter *)
let decomposed_program () =
  let cmp = Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 1; src2 = Instr.Imm 0 } in
  Program.make ~mem_words:4 ~main:"m"
    [ Proc.make ~name:"m"
        [ block ~body:[ movi 1 1 ] "a"
            (Term.Predict { taken = "rt"; not_taken = "rnt"; id = 1 });
          block ~body:[ cmp ] "rnt"
            (Term.Resolve
               { on = true; src = r 5; mispredict = "fixc"; fallthrough = "b";
                 predicted_taken = false; id = 1 });
          block ~body:[ movi 2 100 ] "b" (Term.Jump "join");
          block ~body:[ cmp ] "rt"
            (Term.Resolve
               { on = true; src = r 5; mispredict = "fixb"; fallthrough = "c";
                 predicted_taken = true; id = 1 });
          block ~body:[ movi 2 200 ] "c" (Term.Jump "join");
          block ~body:[ Instr.Store { src = r 2; base = r 0; offset = 0 } ]
            "join" Term.Halt;
          block "fixb" (Term.Jump "b");
          block "fixc" (Term.Jump "c")
        ]
    ]

let test_predict_direction_is_immaterial () =
  let image = Layout.program (decomposed_program ()) in
  let run policy = (Interp.run ~predict_policy:policy image).Interp.mem.(0) in
  (* r1 = 1, so the branch is architecturally taken: path C stores 200 *)
  Alcotest.(check int) "predicted not-taken" 200
    (run (fun ~pc:_ ~id:_ -> false));
  Alcotest.(check int) "predicted taken" 200 (run (fun ~pc:_ ~id:_ -> true))

let test_resolve_hook () =
  let image = Layout.program (decomposed_program ()) in
  let mis = ref None in
  let hooks =
    { Interp.no_hooks with
      Interp.on_resolve =
        (fun ~id:_ ~pc:_ ~mispredicted ~taken ->
          mis := Some (mispredicted, taken))
    }
  in
  ignore (Interp.run ~hooks ~predict_policy:(fun ~pc:_ ~id:_ -> false) image);
  Alcotest.(check (option (pair bool bool))) "mispredicted, actually taken"
    (Some (true, true)) !mis

let test_max_instrs () =
  (* infinite loop bounded by max_instrs *)
  let image =
    program [ Proc.make ~name:"m" [ block "e" (Term.Jump "e") ] ] "m"
  in
  let st = Interp.run ~max_instrs:100 image in
  Alcotest.(check int) "bounded" 100 st.Interp.instr_count;
  Alcotest.(check bool) "not halted" false st.Interp.halted

let test_digests () =
  let s1 = Interp.run (loop_program 10) in
  let s2 = Interp.run (loop_program 10) in
  let s3 = Interp.run (loop_program 11) in
  Alcotest.(check int) "deterministic" (Interp.arch_digest s1)
    (Interp.arch_digest s2);
  Alcotest.(check bool) "sensitive" true
    (Interp.arch_digest s1 <> Interp.arch_digest s3);
  Alcotest.(check bool) "reg digest differs too" true
    (Interp.reg_digest s1 <> Interp.reg_digest s3);
  Alcotest.(check bool) "mem digest differs" true
    (Interp.mem_digest s1 <> Interp.mem_digest s3)

(* ---- run = step iterated -------------------------------------------- *)

type hook_call =
  | On_branch of int * int * bool
  | On_resolve of int * int * bool * bool

(* Hooks that log every call, and a predict policy drawing its directions
   from [policy_seed] in call order: two executions that agree call both
   identically. *)
let observed ~policy_seed =
  let log = ref [] in
  let hooks =
    { Interp.on_branch =
        (fun ~id ~pc ~taken -> log := On_branch (id, pc, taken) :: !log);
      on_resolve =
        (fun ~id ~pc ~mispredicted ~taken ->
          log := On_resolve (id, pc, mispredicted, taken) :: !log)
    }
  in
  let rng = Random.State.make [| policy_seed |] in
  let predict_policy ~pc:_ ~id:_ = Random.State.bool rng in
  (hooks, predict_policy, log)

let shape_valid_candidates prog =
  let image = Layout.program (Program.copy prog) in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Always_not_taken)
      image
  in
  (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog)
    .Vanguard.Select.candidates

let prop_run_is_iterated_step =
  QCheck2.Test.make ~name:"run = step iterated from init" ~count:60
    QCheck2.Gen.(
      (* fuzz programs run tens to hundreds of instructions: a small
         limit often stops them early *)
      quad (int_range 0 100_000) bool (int_range 0 1_000_000)
        (oneof [ int_range 1 200; pure 100_000_000 ]))
    (fun (seed, transformed, policy_seed, max_instrs) ->
      let prog = Bv_workloads.Fuzzgen.generate ~seed in
      let prog =
        if transformed then
          (Vanguard.Transform.apply ~candidates:(shape_valid_candidates prog)
             prog)
            .Vanguard.Transform.program
        else prog
      in
      let image = Layout.program prog in
      let hooks, predict_policy, run_log = observed ~policy_seed in
      let ran = Interp.run ~hooks ~predict_policy ~max_instrs image in
      let hooks, predict_policy, step_log = observed ~policy_seed in
      let st = Interp.init image in
      while (not st.Interp.halted) && st.Interp.instr_count < max_instrs do
        Interp.step ~hooks ~predict_policy image st
      done;
      (* a halted machine does not move *)
      if ran.Interp.halted then Interp.step ~hooks ~predict_policy image ran;
      ran.Interp.regs = st.Interp.regs
      && ran.Interp.mem = st.Interp.mem
      && ran.Interp.pc = st.Interp.pc
      && ran.Interp.halted = st.Interp.halted
      && ran.Interp.instr_count = st.Interp.instr_count
      && ran.Interp.load_count = st.Interp.load_count
      && ran.Interp.store_count = st.Interp.store_count
      && !run_log = !step_log)

(* The interpreter is the profiler's and every digest's engine: a run
   allocates nothing per instruction (the state, and a call's return-stack
   push, are all it allocates). *)
let test_run_does_not_allocate () =
  let open Bv_workloads in
  let spec = Option.get (Suites.find "perlbench") in
  let image =
    Layout.program (Gen.generate ~input:0 { spec with Spec.reps = 2 })
  in
  let branches = ref 0 in
  let hooks =
    { Interp.no_hooks with
      Interp.on_branch = (fun ~id:_ ~pc:_ ~taken:_ -> incr branches)
    }
  in
  let per_instr f =
    let w0 = Gc.minor_words () in
    let st = f () in
    let w1 = Gc.minor_words () in
    Alcotest.(check bool) "halted" true st.Interp.halted;
    (w1 -. w0) /. Float.of_int st.Interp.instr_count
  in
  let plain = per_instr (fun () -> Interp.run image) in
  let hooked =
    per_instr (fun () ->
        Interp.run ~hooks ~predict_policy:(fun ~pc:_ ~id:_ -> true) image)
  in
  Alcotest.(check bool) "branches seen" true (!branches > 0);
  if plain >= 1.0 || hooked >= 1.0 then
    Alcotest.failf "minor words per instruction: %.3f plain, %.3f hooked"
      plain hooked

let () =
  Alcotest.run "bv_exec"
    [ ( "basics",
        [ Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "loop" `Quick test_loop;
          Alcotest.test_case "branch hooks" `Quick test_branch_hooks;
          Alcotest.test_case "calls" `Quick test_calls
        ] );
      ( "faults",
        [ Alcotest.test_case "ret underflow" `Quick test_ret_underflow_faults;
          Alcotest.test_case "memory" `Quick test_memory_faults;
          Alcotest.test_case "speculative load" `Quick
            test_speculative_load_suppresses
        ] );
      ( "memory",
        [ Alcotest.test_case "segments" `Quick test_segments_initialise_memory ] );
      ( "decomposed branches",
        [ Alcotest.test_case "predict immaterial" `Quick
            test_predict_direction_is_immaterial;
          Alcotest.test_case "resolve hook" `Quick test_resolve_hook
        ] );
      ( "limits",
        [ Alcotest.test_case "max instrs" `Quick test_max_instrs;
          Alcotest.test_case "digests" `Quick test_digests
        ] );
      ( "run",
        [ QCheck_alcotest.to_alcotest prop_run_is_iterated_step;
          Alcotest.test_case "no allocation per instruction" `Quick
            test_run_does_not_allocate
        ] )
    ]
