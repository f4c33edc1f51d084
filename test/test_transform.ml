open Bv_isa
open Bv_ir
open Vanguard

let r = Reg.make
let movi d v = Instr.Mov { dst = r d; src = Instr.Imm v }
let add d a b = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Reg (r b) }
let addi d a v = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Imm v }
let ld d b o = Instr.Load { dst = r d; base = r b; offset = o; speculative = false }
let st s b o = Instr.Store { src = r s; base = r b; offset = o }
let cmp_ne d a = Instr.Cmp { op = Instr.Ne; dst = r d; src1 = r a; src2 = Instr.Imm 0 }
let block ?(body = []) label term = Block.make ~label ~body ~term

(* A loop over a condition stream with one hammock — the canonical shape. *)
let hammock_program ?(extra_a = []) ?(b_body = None) ?(c_body = None) ~n stream
    =
  let b_body =
    Option.value b_body
      ~default:[ ld 10 2 0; ld 11 2 8; add 6 6 10; add 6 6 11; st 6 0 800 ]
  in
  let c_body =
    Option.value c_body ~default:[ ld 12 2 16; add 6 6 12; st 6 0 808 ]
  in
  Program.make ~main:"m" ~mem_words:256
    ~segments:[ { Program.base = 0; contents = stream } ]
    [ Proc.make ~name:"m"
        [ block ~body:[ movi 1 0; movi 6 0 ] "entry" (Term.Jump "head");
          block
            ~body:
              ([ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                 ld 4 2 0 ]
              @ extra_a
              @ [ cmp_ne 5 4 ])
            "head"
            (Term.Branch
               { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 });
          block ~body:b_body "b" (Term.Jump "latch");
          block ~body:c_body "c" (Term.Jump "latch");
          block
            ~body:
              [ addi 1 1 1;
                Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
              ]
            "latch"
            (Term.Branch
               { on = true; src = r 5; taken = "head"; not_taken = "out"; id = 2 });
          block ~body:[ st 6 0 816 ] "out" Term.Halt
        ]
    ]

let stream n = Array.init n (fun i -> if i mod 3 = 0 then 1 else 0)

let candidate ~site =
  { Select.proc = "m"; block = "head"; site; bias = 0.66;
    predictability = 0.95; executed = 1000 }

let apply ?max_hoist prog =
  Transform.apply ?max_hoist ~candidates:[ candidate ~site:1 ] prog

let arch_digest ?predict_policy prog =
  Bv_exec.Interp.arch_digest
    (Bv_exec.Interp.run ?predict_policy (Layout.program prog))

let test_structure () =
  let prog = hammock_program ~n:24 (stream 24) in
  let result = apply prog in
  Alcotest.(check int) "no skips" 0 (List.length result.Transform.skipped);
  let tr = result.Transform.program in
  Validate.check_exn tr;
  let proc = Program.find_proc tr "m" in
  let a = Proc.find_block proc "head" in
  (match a.Block.term with
  | Term.Predict { id; _ } -> Alcotest.(check int) "predict id" 1 id
  | t -> Alcotest.failf "expected predict, got %s" (Format.asprintf "%a" Term.pp t));
  (* the condition slice left block A *)
  Alcotest.(check bool) "cmp sunk out of A" true
    (not
       (List.exists
          (function Instr.Cmp _ -> true | _ -> false)
          a.Block.body));
  (* two resolve blocks, two commit blocks, two correction blocks *)
  let labels = Proc.block_labels proc in
  List.iter
    (fun suffix ->
      Alcotest.(check bool) ("has " ^ suffix) true
        (List.exists
           (fun l ->
             String.length l > String.length suffix
             && String.sub l (String.length l - String.length suffix)
                  (String.length suffix)
                = suffix)
           labels))
    [ "rnt.1"; "rt.1"; "commitB.1"; "commitC.1"; "fixB.1"; "fixC.1" ];
  (* correction blocks are laid out cold (at the end) *)
  let last_two = List.filteri (fun i _ -> i >= List.length labels - 2) labels in
  List.iter
    (fun l -> Alcotest.(check bool) ("cold " ^ l) true
        (List.mem l last_two
         || not (String.length l >= 3 && String.sub l 0 3 = "fix")))
    labels;
  (* hoisted loads are speculative *)
  let rnt = Proc.find_block proc "head@rnt.1" in
  Alcotest.(check bool) "speculative loads in A'nt" true
    (List.exists
       (function Instr.Load { speculative = true; _ } -> true | _ -> false)
       rnt.Block.body);
  (* code grew *)
  Alcotest.(check bool) "piscs > 0" true
    (result.Transform.static_instrs_after > result.Transform.static_instrs_before)

let test_equivalence_under_policies () =
  let prog = hammock_program ~n:48 (stream 48) in
  let reference = arch_digest prog in
  let result = apply prog in
  let tr = result.Transform.program in
  let policies =
    [ ("always nt", fun ~pc:_ ~id:_ -> false);
      ("always t", fun ~pc:_ ~id:_ -> true);
      ("by pc parity", fun ~pc ~id:_ -> pc mod 2 = 0)
    ]
  in
  List.iter
    (fun (name, p) ->
      Alcotest.(check int) name reference (arch_digest ~predict_policy:p tr))
    policies;
  (* and the input program was not modified *)
  Alcotest.(check int) "input untouched" reference (arch_digest prog)

let test_liveness_renaming () =
  (* C redefines r10/r11 before reading them, so B's hoisted writes to
     r10/r11 are dead on the taken path and stay architectural; r6 (the
     accumulator) is read on both paths and must go through a temporary *)
  let c_body = [ ld 10 2 16; ld 11 2 24; add 6 6 10; st 6 0 808 ] in
  let prog = hammock_program ~c_body:(Some c_body) ~n:24 (stream 24) in
  let result = apply prog in
  let proc = Program.find_proc result.Transform.program "m" in
  let rnt = Proc.find_block proc "head@rnt.1" in
  let defs = List.concat_map Instr.defs rnt.Block.body in
  Alcotest.(check bool) "r10 kept architectural" true
    (List.exists (Reg.equal (r 10)) defs);
  Alcotest.(check bool) "r6 renamed to a temp" false
    (List.exists (Reg.equal (r 6)) defs);
  let commit = Proc.find_block proc "head@commitB.1" in
  Alcotest.(check bool) "commit moves restore r6" true
    (List.exists
       (function
         | Instr.Mov { dst; _ } -> Reg.equal dst (r 6)
         | _ -> false)
       commit.Block.body)

let test_max_hoist_cap () =
  let prog = hammock_program ~n:24 (stream 24) in
  let result = apply ~max_hoist:1 prog in
  let report = List.hd result.Transform.reports in
  Alcotest.(check int) "hoist capped nt" 1 report.Transform.hoisted_not_taken;
  Alcotest.(check int) "hoist capped t" 1 report.Transform.hoisted_taken;
  (* still correct *)
  Alcotest.(check int) "equivalent" (arch_digest prog)
    (arch_digest result.Transform.program)

let test_store_blocks_hoisting () =
  let b_body = [ st 6 0 800; ld 10 2 0; add 6 6 10 ] in
  let prog = hammock_program ~b_body:(Some b_body) ~n:24 (stream 24) in
  let result = apply prog in
  let report = List.hd result.Transform.reports in
  Alcotest.(check int) "store first => nothing hoisted" 0
    report.Transform.hoisted_not_taken

let test_skip_slice_hazards () =
  (* a non-slice instruction consuming the slice's value forbids sinking *)
  let extra_a = [ add 7 4 4 ] in
  let prog = hammock_program ~extra_a ~n:24 (stream 24) in
  let result = apply prog in
  Alcotest.(check int) "skipped" 1 (List.length result.Transform.skipped);
  Alcotest.(check bool) "reason mentions slice" true
    (match result.Transform.skipped with
    | [ (1, reason) ] ->
      String.length reason > 0
      && String.sub reason 0 9 = "non-slice"
    | _ -> false)

(* A program that already writes a scratch register: every pass that
   renames into the pool must refuse it, or the rewrite clobbers r48. *)
let test_temp_pool_clash_rejected () =
  let prog =
    hammock_program
      ~b_body:(Some [ movi 48 1 ])
      ~n:8 (stream 8)
  in
  let cand = candidate ~site:1 in
  List.iter
    (fun (what, apply) ->
      match apply () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected temp-pool clash rejection" what)
    [ ( "Transform.apply",
        fun () -> ignore (Transform.apply ~candidates:[ cand ] prog) );
      ( "Assertconv.apply",
        fun () -> ignore (Assertconv.apply ~candidates:[ (cand, false) ] prog)
      );
      ( "Predicate.apply",
        fun () ->
          ignore
            (Predicate.apply ~null_sink:(255 * 8) ~candidates:[ cand ] prog) )
    ]

let test_phi_metric () =
  let report =
    { Transform.site = 1; proc = "m"; slice_size = 2; slice_instrs = [];
      hoisted_not_taken = 3; hoisted_taken = 1; not_taken_block_size = 4;
      taken_block_size = 4 }
  in
  Alcotest.(check (float 0.01)) "phi" 50.0 (Transform.phi report)

let test_select_counters_and_pbc () =
  let prog = hammock_program ~n:64 (stream 64) in
  let image = Layout.program (Program.copy prog) in
  let predictor = Bv_bpred.Kind.create Bv_bpred.Kind.Tournament in
  let profile = Bv_profile.Profile.collect ~predictor image in
  let sel = Select.select ~min_executed:50 ~profile prog in
  Alcotest.(check (float 0.01)) "pbc = 100 (1 of 1 forward)" 100.0
    (Select.pbc sel);
  Alcotest.(check int) "nothing shape-rejected" 0 sel.Select.rejected_shape;
  (* huge threshold: rejected by the heuristic, counted as such *)
  let sel2 = Select.select ~min_executed:50 ~threshold:0.9 ~profile prog in
  Alcotest.(check int) "heuristic rejection counted" 1
    sel2.Select.rejected_heuristic;
  Alcotest.(check (float 0.01)) "pbc = 0" 0.0 (Select.pbc sel2)

let test_skip_redefine_hazard () =
  (* a remaining instruction in A that redefines a slice input *)
  let extra_a = [ movi 4 0 ] in
  (* redefines r4 after the slice load reads it *)
  let prog = hammock_program ~extra_a ~n:24 (stream 24) in
  let result = apply prog in
  Alcotest.(check int) "skipped" 1 (List.length result.Transform.skipped);
  (match result.Transform.skipped with
  | [ (1, reason) ] ->
    Alcotest.(check bool) "mentions redefinition" true
      (String.length reason >= 9)
  | _ -> Alcotest.fail "expected one skip")

let test_report_shapes () =
  let prog = hammock_program ~n:24 (stream 24) in
  let result = apply prog in
  let rep = List.hd result.Transform.reports in
  Alcotest.(check string) "proc" "m" rep.Transform.proc;
  Alcotest.(check int) "slice = ld+cmp (+shl)" 3 rep.Transform.slice_size;
  Alcotest.(check int) "slice instrs recorded" 3
    (List.length rep.Transform.slice_instrs);
  Alcotest.(check int) "B size recorded" 5 rep.Transform.not_taken_block_size;
  Alcotest.(check int) "C size recorded" 3 rep.Transform.taken_block_size

let test_selection_rules () =
  let prog = hammock_program ~n:64 (stream 64) in
  let image = Layout.program (Program.copy prog) in
  let predictor = Bv_bpred.Kind.create Bv_bpred.Kind.Tournament in
  let profile = Bv_profile.Profile.collect ~predictor image in
  let sel = Select.select ~min_executed:50 ~profile prog in
  (* site 1 is the forward hammock; site 2 is the backward latch *)
  Alcotest.(check int) "one forward branch" 1 sel.Select.static_forward_branches;
  Alcotest.(check (list int)) "site 1 selected" [ 1 ]
    (List.map (fun c -> c.Select.site) sel.Select.candidates);
  (* a huge threshold rejects everything *)
  let sel2 = Select.select ~min_executed:50 ~threshold:0.9 ~profile prog in
  Alcotest.(check int) "threshold filters" 0 (List.length sel2.Select.candidates);
  (* min_executed filters *)
  let sel3 = Select.select ~min_executed:1_000_000 ~profile prog in
  Alcotest.(check int) "min_executed filters" 0
    (List.length sel3.Select.candidates)

(* ---- the crown property: random hammock chains stay equivalent -------- *)

let gen_work_body =
  let open QCheck2.Gen in
  let instr =
    oneof
      [ map2 (fun d o -> ld d 2 (o * 8)) (int_range 10 14) (int_range 0 4);
        map2 (fun d a -> add d 6 a) (oneofl [ 6; 7 ]) (int_range 10 14);
        map2 (fun d v -> addi d d v) (int_range 6 7) (int_range 1 9);
        map (fun o -> st 6 0 (800 + (o * 8))) (int_range 0 4)
      ]
  in
  list_size (int_range 1 8) instr

let gen_case =
  QCheck2.Gen.(
    triple gen_work_body gen_work_body
      (pair (int_range 2 40) (int_range 0 1000)))

let prop_random_hammocks_equivalent =
  QCheck2.Test.make ~name:"transform preserves semantics (random hammocks)"
    ~count:150 gen_case
    (fun (b_body, c_body, (n, seed)) ->
      let s =
        Array.init n (fun i -> if (i * 7) + seed mod 5 < 2 then 1 else 0)
      in
      let prog =
        hammock_program ~b_body:(Some b_body) ~c_body:(Some c_body) ~n s
      in
      let reference = arch_digest prog in
      match Transform.apply ~candidates:[ candidate ~site:1 ] prog with
      | result ->
        let tr = result.Transform.program in
        arch_digest ~predict_policy:(fun ~pc:_ ~id:_ -> false) tr = reference
        && arch_digest ~predict_policy:(fun ~pc:_ ~id:_ -> true) tr
           = reference
        && arch_digest ~predict_policy:(fun ~pc ~id:_ -> pc mod 3 = 0) tr
           = reference
      | exception Invalid_argument _ -> false)

let () =
  Alcotest.run "vanguard"
    [ ( "structure",
        [ Alcotest.test_case "decomposition shape" `Quick test_structure;
          Alcotest.test_case "liveness renaming" `Quick test_liveness_renaming;
          Alcotest.test_case "max hoist" `Quick test_max_hoist_cap;
          Alcotest.test_case "store blocks hoist" `Quick
            test_store_blocks_hoisting
        ] );
      ( "safety",
        [ Alcotest.test_case "slice hazards skip" `Quick test_skip_slice_hazards;
          Alcotest.test_case "temp pool clash" `Quick
            test_temp_pool_clash_rejected
        ] );
      ( "equivalence",
        [ Alcotest.test_case "policies" `Quick test_equivalence_under_policies ] );
      ( "selection",
        [ Alcotest.test_case "rules" `Quick test_selection_rules;
          Alcotest.test_case "counters/pbc" `Quick test_select_counters_and_pbc;
          Alcotest.test_case "phi" `Quick test_phi_metric
        ] );
      ( "reports",
        [ Alcotest.test_case "redefine hazard" `Quick test_skip_redefine_hazard;
          Alcotest.test_case "shapes" `Quick test_report_shapes
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_hammocks_equivalent ] )
    ]
