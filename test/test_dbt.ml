(* Tests for the DBT-facing extensions: control-flow recovery, the cmov
   primitive, and the predication (if-conversion) pass. *)

open Bv_isa
open Bv_ir

let r = Reg.make
let movi d v = Instr.Mov { dst = r d; src = Instr.Imm v }
let addi d a v = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Imm v }
let add d a b = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Reg (r b) }
let ld d b o = Instr.Load { dst = r d; base = r b; offset = o; speculative = false }
let st s b o = Instr.Store { src = r s; base = r b; offset = o }
let block ?(body = []) label term = Block.make ~label ~body ~term

(* -------------------------------------------------------------- recover *)

let hammock_image () =
  let prog =
    Program.make ~main:"m" ~mem_words:64
      ~segments:[ { Program.base = 0; contents = Array.init 16 (fun i -> i land 1) } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "e" (Term.Jump "head");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  ld 4 2 0;
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "head"
              (Term.Branch { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 });
            block ~body:[ addi 6 6 1 ] "b" (Term.Jump "latch");
            block ~body:[ addi 6 6 2 ] "c" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm 16 }
                ]
              "latch"
              (Term.Branch { on = true; src = r 5; taken = "head"; not_taken = "out"; id = 2 });
            block ~body:[ st 6 0 256 ] "out"
              (Term.Call { target = "f"; return_to = "fin" });
            block "fin" Term.Halt
          ];
        Proc.make ~name:"f" [ block ~body:[ addi 6 6 100 ] "f0" Term.Ret ]
      ]
  in
  Layout.program prog

let test_recover_roundtrip () =
  let img = hammock_image () in
  let recovered = Recover.image img in
  Validate.check_exn recovered;
  let img2 = Layout.program recovered in
  Alcotest.(check int) "same length" (Array.length img.Layout.code)
    (Array.length img2.Layout.code);
  Array.iteri
    (fun pc i ->
      let j = img2.Layout.code.(pc) in
      (* instructions are equal modulo label renaming: compare printed
         opcodes and operands with labels erased *)
      let erase s = String.map (fun c -> if c = '@' then '_' else c) s in
      let shape i =
        match Instr.branch_target i with
        | None -> erase (Instr.to_string i)
        | Some _ -> "" (* checked via resolved targets below *)
      in
      Alcotest.(check string) (Printf.sprintf "pc %d" pc) (shape i) (shape j);
      match (Instr.branch_target i, Instr.branch_target j) with
      | Some li, Some lj ->
        Alcotest.(check int)
          (Printf.sprintf "target at %d" pc)
          (Layout.resolve img li) (Layout.resolve img2 lj)
      | None, None -> ()
      | _ -> Alcotest.failf "target shape mismatch at %d" pc)
    img.Layout.code

let test_recover_preserves_semantics () =
  let img = hammock_image () in
  let recovered = Recover.image img in
  let img2 = Layout.program recovered in
  Alcotest.(check int) "digest"
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img))
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img2))

let test_recover_workload () =
  (* a transformed generated benchmark (predicts/resolves included) *)
  let spec =
    Bv_workloads.Spec.make ~name:"rec" ~suite:Bv_workloads.Spec.Int_2006
      ~seed:77
      ~branch_classes:
        [ Bv_workloads.Spec.cls ~count:4 ~taken_rate:0.6 ~predictability:0.95
            ()
        ]
      ~inner_n:32 ~reps:2 ()
  in
  let prog = Bv_workloads.Gen.generate ~input:1 spec in
  let image = Layout.program prog in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
      image
  in
  let sel =
    Vanguard.Select.select ~threshold:(-1.0) ~min_executed:1 ~profile prog
  in
  let transformed =
    (Vanguard.Transform.apply ~candidates:sel.Vanguard.Select.candidates prog)
      .Vanguard.Transform.program
  in
  let timg = Layout.program transformed in
  let rimg = Layout.program (Recover.image timg) in
  Alcotest.(check int) "digest after recover"
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run timg))
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run rimg))

(* ----------------------------------------------------------------- cmov *)

let test_cmov_semantics () =
  let prog =
    Program.make ~main:"m" ~mem_words:4
      [ Proc.make ~name:"m"
          [ block
              ~body:
                [ movi 1 1; movi 2 100; movi 3 200;
                  Instr.Cmov { on = true; cond = r 1; dst = r 2; src = Instr.Imm 7 };
                  Instr.Cmov { on = false; cond = r 1; dst = r 3; src = Instr.Imm 7 };
                  st 2 0 0; st 3 0 8
                ]
              "e" Term.Halt
          ]
      ]
  in
  let stt = Bv_exec.Interp.run (Layout.program prog) in
  Alcotest.(check int) "fires on nz" 7 stt.Bv_exec.Interp.mem.(0);
  Alcotest.(check int) "holds on z-mismatch" 200 stt.Bv_exec.Interp.mem.(1);
  (* machine agrees *)
  let res =
    Bv_pipeline.Machine.run ~config:Bv_pipeline.Config.four_wide
      (Layout.program prog)
  in
  Alcotest.(check int) "machine digest"
    (Bv_exec.Interp.arch_digest stt)
    res.Bv_pipeline.Machine.arch_digest

let test_cmov_dst_is_use () =
  (* the scheduler must not move a cmov above the producer of its dst *)
  let producer = movi 2 5 in
  let cm = Instr.Cmov { on = true; cond = r 1; dst = r 2; src = Instr.Imm 9 } in
  let out = Bv_sched.Sched.schedule_body ~term:Term.Halt [ producer; cm ] in
  Alcotest.(check bool) "order kept" true
    (match out with [ a; _ ] -> a == producer | _ -> false)

(* ------------------------------------------------------------ predicate *)

let pred_hammock ~n ~b_body ~c_body stream =
  Program.make ~main:"m" ~mem_words:512
    ~segments:[ { Program.base = 0; contents = stream } ]
    [ Proc.make ~name:"m"
        [ block ~body:[ movi 1 0; movi 6 0 ] "e" (Term.Jump "head");
          block
            ~body:
              [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                ld 4 2 0;
                Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
              ]
            "head"
            (Term.Branch { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 });
          block ~body:b_body "b" (Term.Jump "latch");
          block ~body:c_body "c" (Term.Jump "latch");
          block
            ~body:
              [ addi 1 1 1;
                Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
              ]
            "latch"
            (Term.Branch { on = true; src = r 5; taken = "head"; not_taken = "out"; id = 2 });
          block ~body:[ st 6 0 3000 ] "out" Term.Halt
        ]
    ]

let candidate = { Vanguard.Select.proc = "m"; block = "head"; site = 1;
                  bias = 0.5; predictability = 0.5; executed = 100 }

(* exclude the null sink word from the comparison: losing arms park their
   stores there *)
let digest_ignoring_sink ~sink img policy =
  let stt = Bv_exec.Interp.run ~predict_policy:policy img in
  stt.Bv_exec.Interp.mem.(sink / 8) <- 0;
  Bv_exec.Interp.mem_digest stt

let test_predication_equivalence () =
  let n = 40 in
  let stream = Array.init n (fun i -> (i * 5) mod 3 land 1) in
  let b_body = [ ld 10 2 8; add 6 6 10; st 6 0 3008 ] in
  let c_body = [ ld 11 2 16; Instr.Alu { op = Instr.Mul; dst = r 11; src1 = r 11; src2 = Instr.Imm 3 };
                 add 6 6 11 ] in
  let prog = pred_hammock ~n ~b_body ~c_body stream in
  let sink = 504 * 8 in
  let result =
    Vanguard.Predicate.apply ~null_sink:sink ~candidates:[ candidate ] prog
  in
  Alcotest.(check int) "converted" 1
    (List.length result.Vanguard.Predicate.reports);
  let before = Layout.program prog in
  let after = Layout.program result.Vanguard.Predicate.program in
  let nt = (fun ~pc:_ ~id:_ -> false) in
  Alcotest.(check int) "memory equal (modulo sink)"
    (digest_ignoring_sink ~sink before nt)
    (digest_ignoring_sink ~sink after nt);
  (* the branch is gone *)
  let has_branch =
    Array.exists
      (function Instr.Branch { id = 1; _ } -> true | _ -> false)
      after.Layout.code
  in
  Alcotest.(check bool) "branch eliminated" false has_branch;
  (* and the machine runs it with zero mispredicts on site 1 *)
  let res =
    Bv_pipeline.Machine.run ~config:Bv_pipeline.Config.four_wide after
  in
  Alcotest.(check bool) "finished" true res.Bv_pipeline.Machine.finished

let test_predication_cmov_in_arm () =
  (* an arm already containing a cmov: the temp must be seeded with the
     prior value so a false inner condition keeps it *)
  let n = 24 in
  let stream = Array.init n (fun i -> i land 1) in
  let b_body =
    [ movi 10 7;
      Instr.Cmov { on = true; cond = r 10; dst = r 6; src = Instr.Imm 42 };
      addi 6 6 1
    ]
  in
  let c_body = [ addi 6 6 5 ] in
  let prog = pred_hammock ~n ~b_body ~c_body stream in
  let sink = 504 * 8 in
  let result =
    Vanguard.Predicate.apply ~null_sink:sink ~candidates:[ candidate ] prog
  in
  Alcotest.(check int) "converted" 1
    (List.length result.Vanguard.Predicate.reports);
  let nt ~pc:_ ~id:_ = false in
  Alcotest.(check int) "equivalent"
    (digest_ignoring_sink ~sink (Layout.program prog) nt)
    (digest_ignoring_sink ~sink
       (Layout.program result.Vanguard.Predicate.program)
       nt)

let test_predication_skips () =
  let n = 8 in
  let stream = Array.make n 1 in
  (* arms that do not join are refused *)
  let prog =
    Program.make ~main:"m" ~mem_words:64
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0;
                          ld 4 1 0;
                          Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 } ]
              "head"
              (Term.Branch { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 });
            block "b" (Term.Jump "j1");
            block "c" (Term.Jump "j2");
            block "j1" (Term.Jump "out");
            block "j2" (Term.Jump "out");
            block "out" Term.Halt
          ]
      ]
  in
  let result =
    Vanguard.Predicate.apply ~null_sink:256 ~candidates:[ candidate ] prog
  in
  Alcotest.(check int) "skipped" 1 (List.length result.Vanguard.Predicate.skipped);
  (match Vanguard.Predicate.apply ~null_sink:3 ~candidates:[] prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned sink accepted")

let prop_predication_equivalent =
  let open QCheck2.Gen in
  let arm =
    list_size (int_range 1 5)
      (oneof
         [ map2 (fun d o -> ld d 2 (o * 8)) (int_range 10 13) (int_range 0 4);
           map (fun v -> addi 6 6 v) (int_range 1 9);
           map (fun a -> add 6 6 a) (int_range 10 13);
           map (fun o -> st 6 0 (3000 + (o * 8))) (int_range 0 4)
         ])
  in
  QCheck2.Test.make ~name:"if-conversion preserves semantics" ~count:100
    (triple arm arm (int_range 4 40))
    (fun (b_body, c_body, n) ->
      let stream = Array.init n (fun i -> (i * 13) mod 7 / 3) in
      let prog = pred_hammock ~n ~b_body ~c_body stream in
      let sink = 504 * 8 in
      match
        Vanguard.Predicate.apply ~null_sink:sink ~candidates:[ candidate ]
          prog
      with
      | result ->
        result.Vanguard.Predicate.skipped = []
        &&
        let before = Layout.program prog in
        let after = Layout.program result.Vanguard.Predicate.program in
        let nt ~pc:_ ~id:_ = false in
        digest_ignoring_sink ~sink before nt
        = digest_ignoring_sink ~sink after nt
      | exception Invalid_argument _ -> false)

(* -------------------------------------------------------- assert conv *)

let test_assertconv_structure_and_equivalence () =
  let n = 48 in
  (* highly biased: taken once in 16 *)
  let stream = Array.init n (fun i -> if i mod 16 = 0 then 1 else 0) in
  let b_body = [ ld 10 2 8; add 6 6 10; st 6 0 3008 ] in
  let c_body = [ addi 6 6 100 ] in
  let prog = pred_hammock ~n ~b_body ~c_body stream in
  let reference =
    Bv_exec.Interp.arch_digest (Bv_exec.Interp.run (Layout.program prog))
  in
  let result =
    Vanguard.Assertconv.apply ~candidates:[ (candidate, false) ] prog
  in
  Alcotest.(check int) "converted" 1
    (List.length result.Vanguard.Assertconv.reports);
  let report = List.hd result.Vanguard.Assertconv.reports in
  Alcotest.(check bool) "likely not taken" false
    report.Vanguard.Assertconv.likely_taken;
  Alcotest.(check bool) "hoisted something" true
    (report.Vanguard.Assertconv.hoisted > 0);
  let tr = result.Vanguard.Assertconv.program in
  Validate.check_exn tr;
  let img = Layout.program tr in
  (* no predict instruction: the prediction is static layout *)
  Alcotest.(check bool) "no predicts" false
    (Array.exists
       (function Instr.Predict _ -> true | _ -> false)
       img.Layout.code);
  Alcotest.(check bool) "one resolve" true
    (Array.exists
       (function Instr.Resolve _ -> true | _ -> false)
       img.Layout.code);
  Alcotest.(check int) "equivalent" reference
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img));
  (* and the timing model runs it with resolve mispredicts ~ rare rate *)
  let res = Bv_pipeline.Machine.run ~config:Bv_pipeline.Config.four_wide img in
  Alcotest.(check bool) "finished" true res.Bv_pipeline.Machine.finished;
  Alcotest.(check int) "digest" reference res.Bv_pipeline.Machine.arch_digest;
  let st = res.Bv_pipeline.Machine.stats in
  Alcotest.(check bool) "asserts fire rarely" true
    (st.Bv_pipeline.Stats.resolve_mispredicts * 8
    < st.Bv_pipeline.Stats.resolve_execs)

let test_assertconv_likely_taken_side () =
  let n = 32 in
  let stream = Array.init n (fun i -> if i mod 8 = 7 then 0 else 1) in
  let b_body = [ addi 6 6 1 ] in
  let c_body = [ ld 11 2 16; add 6 6 11 ] in
  let prog = pred_hammock ~n ~b_body ~c_body stream in
  let reference =
    Bv_exec.Interp.arch_digest (Bv_exec.Interp.run (Layout.program prog))
  in
  let result =
    Vanguard.Assertconv.apply ~candidates:[ (candidate, true) ] prog
  in
  Alcotest.(check int) "converted" 1
    (List.length result.Vanguard.Assertconv.reports);
  Alcotest.(check int) "equivalent" reference
    (Bv_exec.Interp.arch_digest
       (Bv_exec.Interp.run (Layout.program result.Vanguard.Assertconv.program)))

let prop_assertconv_equivalent =
  let open QCheck2.Gen in
  let arm =
    list_size (int_range 1 5)
      (oneof
         [ map2 (fun d o -> ld d 2 (o * 8)) (int_range 10 13) (int_range 0 4);
           map (fun v -> addi 6 6 v) (int_range 1 9);
           map (fun o -> st 6 0 (3000 + (o * 8))) (int_range 0 4)
         ])
  in
  QCheck2.Test.make ~name:"assert conversion preserves semantics" ~count:100
    (triple arm arm (pair (int_range 4 40) bool))
    (fun (b_body, c_body, (n, likely)) ->
      let stream = Array.init n (fun i -> (i * 11) mod 5 / 2) in
      let prog = pred_hammock ~n ~b_body ~c_body stream in
      let reference =
        Bv_exec.Interp.arch_digest (Bv_exec.Interp.run (Layout.program prog))
      in
      match
        Vanguard.Assertconv.apply ~candidates:[ (candidate, likely) ] prog
      with
      | result ->
        Bv_exec.Interp.arch_digest
          (Bv_exec.Interp.run
             (Layout.program result.Vanguard.Assertconv.program))
        = reference
      | exception Invalid_argument _ -> false)

let () =
  Alcotest.run "dbt extensions"
    [ ( "recover",
        [ Alcotest.test_case "roundtrip" `Quick test_recover_roundtrip;
          Alcotest.test_case "semantics" `Quick test_recover_preserves_semantics;
          Alcotest.test_case "transformed workload" `Quick
            test_recover_workload
        ] );
      ( "cmov",
        [ Alcotest.test_case "semantics" `Quick test_cmov_semantics;
          Alcotest.test_case "dst is a use" `Quick test_cmov_dst_is_use
        ] );
      ( "predication",
        [ Alcotest.test_case "equivalence" `Quick test_predication_equivalence;
          Alcotest.test_case "cmov in arm" `Quick test_predication_cmov_in_arm;
          Alcotest.test_case "skips" `Quick test_predication_skips;
          QCheck_alcotest.to_alcotest prop_predication_equivalent
        ] );
      ( "assert conversion",
        [ Alcotest.test_case "structure + equivalence" `Quick
            test_assertconv_structure_and_equivalence;
          Alcotest.test_case "likely-taken side" `Quick
            test_assertconv_likely_taken_side;
          QCheck_alcotest.to_alcotest prop_assertconv_equivalent
        ] )
    ]
