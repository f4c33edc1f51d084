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

(* [aux] never runs, but its call makes [m] a legal call target so the
   layout-time validator (which rejects a ret in a never-called proc) lets
   the runtime underflow happen. *)
let ret_underflow_image () =
  program
    [ Proc.make ~name:"m" [ block "e" Term.Ret ];
      Proc.make ~name:"aux"
        [ block "a0" (Term.Call { target = "m"; return_to = "a1" });
          block "a1" Term.Halt
        ]
    ]
    "m"

let bad_store off =
  program ~mem_words:2
    [ Proc.make ~name:"m"
        [ block ~body:[ Instr.Store { src = r 0; base = r 0; offset = off } ]
            "e" Term.Halt
        ]
    ]
    "m"

let test_ret_underflow_faults () =
  Alcotest.check_raises "fault" (Interp.Fault "ret with empty call stack")
    (fun () -> ignore (Interp.run (ret_underflow_image ())))

let test_memory_faults () =
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

(* ---- run = step iterated = reference --------------------------------- *)

(* [Interp]'s decoded loop against [Interp_ref], the variant-matching
   interpreter it replaced: the whole architectural state, and every
   call it makes out of the loop. *)

type call =
  | On_branch of int * int * bool
  | On_resolve of int * int * bool * bool
  | Predict_policy of int * int * bool

let same_state (a : Interp.state) (b : Interp.state) =
  a.regs = b.regs && a.mem = b.mem && a.pc = b.pc && a.halted = b.halted
  && a.instr_count = b.instr_count
  && a.load_count = b.load_count
  && a.store_count = b.store_count
  && List.of_seq (Stack.to_seq a.call_stack)
     = List.of_seq (Stack.to_seq b.call_stack)

(* Hooks and a predict policy that log every call, the policy drawing its
   directions from [policy_seed] in call order: two executions that agree
   make the same calls and get the same answers. *)
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
  let predict_policy ~pc ~id =
    let taken = Random.State.bool rng in
    log := Predict_policy (pc, id, taken) :: !log;
    taken
  in
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

(* [run], and [step] iterated from [init], each equal the reference's
   [run]: state, calls and answers. *)
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
      let hooks, predict_policy, ref_log = observed ~policy_seed in
      let reference = Interp_ref.run ~hooks ~predict_policy ~max_instrs image in
      let hooks, predict_policy, run_log = observed ~policy_seed in
      let ran = Interp.run ~hooks ~predict_policy ~max_instrs image in
      let hooks, predict_policy, step_log = observed ~policy_seed in
      let st = Interp.init image in
      while (not st.Interp.halted) && st.Interp.instr_count < max_instrs do
        Interp.step ~hooks ~predict_policy image st
      done;
      (* a halted machine does not move *)
      if ran.Interp.halted then Interp.step ~hooks ~predict_policy image ran;
      same_state reference ran && same_state reference st
      && !ref_log = !run_log && !ref_log = !step_log)

(* Code no compiler would emit, straight into an image: every
   instruction form with every operation, register and immediate
   operands, loads and stores in and out of bounds, and control
   instructions whose targets are any pc, a few past either end. The
   validator never sees it; only the interpreters do, under a limit,
   since it may loop forever. *)
let gen_image =
  let open QCheck2.Gen in
  let mem_words = 8 in
  let reg = map Reg.make (int_range 0 7) in
  let imm =
    oneof [ int_range (-70) 70; int; pure max_int; pure min_int ]
  in
  let operand =
    oneof [ map (fun r -> Instr.Reg r) reg; map (fun i -> Instr.Imm i) imm ]
  in
  let alu_op = oneofl Instr.[ Add; Sub; And; Or; Xor; Shl; Shr; Mul ] in
  let cmp_op = oneofl Instr.[ Eq; Ne; Lt; Ge; Le; Gt ] in
  (* r0 stays 0 unless an instruction writes it, so most accesses off
     it are in bounds *)
  let offset = oneof [ map (fun k -> 8 * k) (int_range (-1) mem_words); imm ] in
  let id = int_range 0 3 in
  let instr =
    oneof
      [ pure Instr.Nop;
        pure Instr.Halt;
        pure Instr.Ret;
        pure (Instr.Jump "t");
        pure (Instr.Call "t");
        map4
          (fun op dst src1 src2 -> Instr.Alu { op; dst; src1; src2 })
          alu_op reg reg operand;
        map4
          (fun op dst src1 src2 -> Instr.Fpu { op; dst; src1; src2 })
          alu_op reg reg operand;
        map4
          (fun op dst src1 src2 -> Instr.Cmp { op; dst; src1; src2 })
          cmp_op reg reg operand;
        map2 (fun dst src -> Instr.Mov { dst; src }) reg operand;
        map4
          (fun on cond dst src -> Instr.Cmov { on; cond; dst; src })
          bool reg reg operand;
        map4
          (fun dst base offset speculative ->
            Instr.Load { dst; base; offset; speculative })
          reg (oneof [ pure (Reg.make 0); reg ]) offset bool;
        map3
          (fun src base offset -> Instr.Store { src; base; offset })
          reg (oneof [ pure (Reg.make 0); reg ]) offset;
        map3
          (fun on src id -> Instr.Branch { on; src; target = "t"; id })
          bool reg id;
        map (fun id -> Instr.Predict { target = "t"; id }) id;
        map4
          (fun on src predicted_taken id ->
            Instr.Resolve { on; src; target = "t"; predicted_taken; id })
          bool reg bool id
      ]
  in
  let* code = array_size (int_range 1 40) instr in
  let n = Array.length code in
  let+ targets =
    array_repeat n
      (frequency [ (9, int_range 0 (n - 1)); (1, int_range (-2) (n + 2)) ])
  in
  let host =
    program ~mem_words [ Proc.make ~name:"m" [ block "e" Term.Halt ] ] "m"
  in
  { host with Layout.code; targets; entry = 0 }

(* On arbitrary code, [run] and [step] iterated from [init] each end as
   the reference's do: the same state, calls and answers, or the same
   fault; a stepped fault leaves the same state. *)
let prop_random_code_matches_reference =
  QCheck2.Test.make ~name:"random code = reference" ~count:2000
    ~print:(fun (image, _, _) ->
      String.concat "\n"
        (List.mapi
           (fun pc i ->
             Printf.sprintf "%d: %s -> %d" pc (Instr.to_string i)
               image.Layout.targets.(pc))
           (Array.to_list image.Layout.code)))
    QCheck2.Gen.(triple gen_image (int_range 0 1_000_000) (int_range 0 300))
    (fun (image, policy_seed, max_instrs) ->
      let ran run =
        let hooks, predict_policy, log = observed ~policy_seed in
        match run hooks predict_policy with
        | st -> (Ok st, !log)
        | exception Interp.Fault m -> (Error m, !log)
      in
      let stepped step =
        let hooks, predict_policy, log = observed ~policy_seed in
        let st = Interp.init image in
        let fault =
          match
            while
              (not st.Interp.halted) && st.Interp.instr_count < max_instrs
            do
              step hooks predict_policy st
            done
          with
          | () -> None
          | exception Interp.Fault m -> Some m
        in
        (fault, st, !log)
      in
      let same_run (a, a_log) (b, b_log) =
        a_log = b_log
        &&
        match (a, b) with
        | Ok a, Ok b -> same_state a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      let ref_fault, reference, ref_log =
        stepped (fun hooks predict_policy ->
            Interp_ref.step ~hooks ~predict_policy image)
      in
      let fault, st, log =
        stepped (fun hooks predict_policy ->
            Interp.step ~hooks ~predict_policy image)
      in
      ref_fault = fault && same_state reference st && ref_log = log
      && same_run
           (ran (fun hooks predict_policy ->
                Interp_ref.run ~hooks ~predict_policy ~max_instrs image))
           (ran (fun hooks predict_policy ->
                Interp.run ~hooks ~predict_policy ~max_instrs image)))

(* Hooks that fold every call into one FNV digest, and count them. *)
let digested () =
  let digest = ref 0xcbf29ce4 and calls = ref 0 in
  let mix vs =
    incr calls;
    List.iter
      (fun v -> digest := (!digest lxor v) * 0x100000001B3 land max_int)
      vs
  in
  ( { Interp.on_branch =
        (fun ~id ~pc ~taken -> mix [ 0; id; pc; Bool.to_int taken ]);
      on_resolve =
        (fun ~id ~pc ~mispredicted ~taken ->
          mix [ 1; id; pc; Bool.to_int mispredicted; Bool.to_int taken ])
    },
    digest,
    calls )

(* All 55 suites' TRAIN images, run to completion. [step] runs in
   lockstep with the reference's: after every instruction, the same
   calls so far (count and digest), pc and counts; at the end, the same
   state. [run] ends as the reference's does, with the same calls. *)
let test_train_images_match_reference () =
  List.iter
    (fun spec ->
      let name = spec.Bv_workloads.Spec.name in
      let image = Layout.program (Bv_workloads.Gen.generate ~input:0 spec) in
      let lockstep () =
        let reference = Interp.init image and st = Interp.init image in
        let ref_hooks, ref_digest, ref_calls = digested () in
        let hooks, digest, calls = digested () in
        let diverged = ref None in
        while !diverged = None && not reference.Interp.halted do
          Interp_ref.step ~hooks:ref_hooks image reference;
          Interp.step ~hooks image st;
          if
            !ref_digest <> !digest || !ref_calls <> !calls
            || reference.Interp.pc <> st.Interp.pc
            || reference.Interp.halted <> st.Interp.halted
            || reference.Interp.instr_count <> st.Interp.instr_count
            || reference.Interp.load_count <> st.Interp.load_count
            || reference.Interp.store_count <> st.Interp.store_count
          then diverged := Some reference.Interp.instr_count
        done;
        Alcotest.(check (option int)) (name ^ ": step diverged at") None
          !diverged;
        Alcotest.(check bool) (name ^ ": stepped state") true
          (same_state reference st)
      in
      lockstep ();
      let ref_hooks, ref_digest, ref_calls = digested () in
      let hooks, digest, calls = digested () in
      let reference = Interp_ref.run ~hooks:ref_hooks image in
      let ran = Interp.run ~hooks image in
      Alcotest.(check bool) (name ^ ": halted") true ran.Interp.halted;
      Alcotest.(check bool) (name ^ ": run state") true
        (same_state reference ran);
      Alcotest.(check int) (name ^ ": run calls") !ref_calls !calls;
      Alcotest.(check int) (name ^ ": run call digest") !ref_digest !digest)
    Bv_workloads.Suites.all

(* Every way to fault, each raised with the same message by [run], and by
   [step] with the same state, as the reference raises it. *)
let test_faults_match_reference () =
  let bad_load =
    program ~mem_words:2
      [ Proc.make ~name:"m"
          [ block
              ~body:
                [ movi 1 3;
                  Instr.Load
                    { dst = r 2; base = r 1; offset = 8; speculative = false }
                ]
              "e" Term.Halt
          ]
      ]
      "m"
  in
  (* the loop's branch retargeted past the end of the code *)
  let wild_branch =
    let image = loop_program 3 in
    { image with
      Layout.targets =
        Array.map (fun t -> if t >= 0 then 1_000 else t) image.Layout.targets
    }
  in
  List.iter
    (fun (what, image, message) ->
      let stepped step =
        let st = Interp.init image in
        match
          while not st.Interp.halted do
            step st
          done
        with
        | () -> (None, st)
        | exception Interp.Fault m -> (Some m, st)
      in
      let ran run =
        match run image with
        | (_ : Interp.state) -> None
        | exception Interp.Fault m -> Some m
      in
      let ref_fault, reference = stepped (Interp_ref.step image) in
      let fault, st = stepped (Interp.step image) in
      Alcotest.(check (option string)) (what ^ ": reference") (Some message)
        ref_fault;
      Alcotest.(check (option string)) (what ^ ": step") ref_fault fault;
      Alcotest.(check bool) (what ^ ": state at the fault") true
        (same_state reference st);
      Alcotest.(check (option string)) (what ^ ": run") ref_fault
        (ran (fun image -> Interp.run image));
      Alcotest.(check (option string)) (what ^ ": reference run") ref_fault
        (ran (fun image -> Interp_ref.run image)))
    [ ("ret underflow", ret_underflow_image (), "ret with empty call stack");
      ("unaligned store", bad_store 4, "store to invalid address 4");
      ("store out of range", bad_store 1600, "store to invalid address 1600");
      ("load out of range", bad_load, "load from invalid address 11");
      ("pc out of range", wild_branch, "pc 1000 out of code bounds")
    ];
  Alcotest.check_raises "step on another image"
    (Invalid_argument "Interp.step: the state was made from another image")
    (fun () -> Interp.step (bad_store 4) (Interp.init (bad_store 4)))

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
          QCheck_alcotest.to_alcotest prop_random_code_matches_reference;
          Alcotest.test_case "TRAIN images = reference" `Quick
            test_train_images_match_reference;
          Alcotest.test_case "faults = reference" `Quick
            test_faults_match_reference;
          Alcotest.test_case "no allocation per instruction" `Quick
            test_run_does_not_allocate
        ] )
    ]
