(* Cost-model advisor: static profitability analysis cross-validated
   against measured cycle attribution.

   The golden workloads are the same two specs the cycle-equivalence
   goldens pin (test_goldens.ml), so the advisor's ranking is asserted on
   programs whose timing behaviour is already locked down. *)

open Bv_analysis
open Bv_bpred
open Bv_harness
open Bv_ir
open Bv_workloads

let spec_int =
  Spec.make ~name:"golden-int" ~suite:Spec.Int_2006 ~seed:7001
    ~branch_classes:
      [ Spec.cls ~count:6 ~taken_rate:0.60 ~predictability:0.95 ();
        Spec.cls ~iid:true ~count:4 ~taken_rate:0.92 ~predictability:0.92 ();
        Spec.cls ~iid:true ~count:2 ~taken_rate:0.50 ~predictability:0.50 ()
      ]
    ~loads_per_block:3.0 ~cond_depth:4 ~inner_n:128 ~reps:10 ()

let spec_mem =
  Spec.make ~name:"golden-mem" ~suite:Spec.Fp_2006 ~seed:7002
    ~branch_classes:
      [ Spec.cls ~count:4 ~taken_rate:0.58 ~predictability:0.96 () ]
    ~loads_per_block:4.0 ~footprint_kb:128 ~chase_frac:0.2 ~cond_chase:true
    ~inner_n:64 ~reps:3 ()

let bench_int = lazy (Runner.prepare spec_int)
let bench_mem = lazy (Runner.prepare spec_mem)

(* ------------------------------------------------------------ spearman -- *)

let test_spearman () =
  let check name want xs ys =
    Alcotest.(check (float 1e-9)) name want (Advisor.spearman xs ys)
  in
  check "identical order" 1.0 [| 1.; 2.; 3.; 4. |] [| 10.; 20.; 30.; 40. |];
  check "reversed order" (-1.0) [| 1.; 2.; 3. |] [| 9.; 5.; 1. |];
  check "monotone nonlinear" 1.0 [| 1.; 2.; 3. |] [| 1.; 100.; 10000. |];
  Alcotest.(check bool)
    "under two points is NaN" true
    (Float.is_nan (Advisor.spearman [| 1.0 |] [| 2.0 |]));
  Alcotest.(check bool)
    "constant sample is NaN" true
    (Float.is_nan (Advisor.spearman [| 1.; 1.; 1. |] [| 1.; 2.; 3. |]));
  (* Ties share average ranks: x = [1;1;2] vs y = [5;5;9] is a perfect
     monotone relation even with the tie. *)
  check "average-tie ranks" 1.0 [| 1.; 1.; 2. |] [| 5.; 5.; 9. |]

(* ----------------------------------------------------------- costmodel -- *)

let test_costmodel_golden_int () =
  let train = Gen.generate ~input:0 spec_int in
  let costs = Costmodel.analyze ~exit_live:Gen.live_at_exit train in
  Alcotest.(check bool) "found branch sites" true (List.length costs > 0);
  List.iter
    (fun (c : Costmodel.site_cost) ->
      Alcotest.(check bool)
        "slice height covers at least the compare" true (c.slice_height >= 1);
      Alcotest.(check bool)
        "residency brackets the slice" true
        (c.dbb_residency = c.slice_height + 2);
      Alcotest.(check bool)
        "merged height at least each part" true
        (c.not_taken.merged_height >= c.slice_height
        && c.not_taken.merged_height >= c.not_taken.prefix_height);
      Alcotest.(check bool)
        "growth counts the duplicated slice and six new blocks" true
        (c.ineligible <> None
        || c.code_growth
           >= c.slice_size + c.not_taken.prefix + c.taken.prefix + 6);
      Alcotest.(check bool)
        "window pressure counts at least this site" true
        (c.window_pressure >= 1))
    costs

let test_classes_and_loops () =
  (* A hand-built procedure: a loop whose latch is a backward branch, an
     exit branch inside the loop, and a straight-line hammock after it. *)
  let r i = Bv_isa.Reg.make i in
  let mov d v = Bv_isa.Instr.Mov { dst = r d; src = Bv_isa.Instr.Imm v } in
  let cmp d a b =
    Bv_isa.Instr.Cmp
      { op = Bv_isa.Instr.Lt; dst = r d; src1 = r a; src2 = Bv_isa.Instr.Reg (r b) }
  in
  let branch ~src ~taken ~not_taken id =
    Term.Branch { on = true; src = r src; taken; not_taken; id }
  in
  let block label body term = Block.make ~label ~body ~term in
  let proc =
    Proc.make ~name:"main" ~entry:"entry"
      [ block "entry" [ mov 1 0; mov 2 10 ] (Term.Jump "head");
        block "head" [ cmp 3 1 2 ]
          (branch ~src:3 ~taken:"body" ~not_taken:"done" 0);
        block "body"
          [ Bv_isa.Instr.Alu
              { op = Bv_isa.Instr.Add;
                dst = r 1;
                src1 = r 1;
                src2 = Bv_isa.Instr.Imm 1
              };
            cmp 4 1 2
          ]
          (branch ~src:4 ~taken:"head" ~not_taken:"done" 1);
        block "done" [ mov 5 1; cmp 6 5 2 ]
          (branch ~src:6 ~taken:"left" ~not_taken:"right" 2);
        block "left" [ mov 7 1 ] (Term.Jump "join");
        block "right" [ mov 7 2 ] (Term.Jump "join");
        block "join" [] Term.Halt
      ]
  in
  let loops = Loops.compute (Cfg.make proc) in
  Alcotest.(check (list (pair string string)))
    "one back edge" [ ("body", "head") ] (Loops.back_edges loops);
  Alcotest.(check (list string)) "loop body" [ "body"; "head" ]
    (Loops.body loops "head");
  Alcotest.(check int) "depth inside" 1 (Loops.depth loops "body");
  Alcotest.(check int) "depth outside" 0 (Loops.depth loops "done");
  let costs = Costmodel.analyze_proc proc in
  let find site =
    List.find (fun (c : Costmodel.site_cost) -> c.site = site) costs
  in
  Alcotest.(check string) "loop exit" "loop-exit"
    (Costmodel.pred_class_name (find 0).pred_class);
  Alcotest.(check string) "latch is loop-back" "loop-back"
    (Costmodel.pred_class_name (find 1).pred_class);
  Alcotest.(check string) "hammock after the loop" "straightline"
    (Costmodel.pred_class_name (find 2).pred_class);
  Alcotest.(check bool) "latch not forward" false (find 1).Costmodel.forward

(* -------------------------------------------------------------- advise -- *)

let top5 advice =
  List.filteri (fun i _ -> i < 5) advice.Advisor.recommended
  |> List.map (fun r -> r.Advisor.cost.Costmodel.site)

let test_advise_golden_int () =
  let b = Lazy.force bench_int in
  let advice = Runner.advise b in
  Alcotest.(check bool)
    "recommends something" true
    (List.length advice.Advisor.recommended > 0);
  (* Ranking is deterministic: the top-5 of the golden workload is pinned
     — an advisor change that reorders it must update this on purpose. *)
  Alcotest.(check (list int)) "top-5 stable" [ 6; 8; 11; 12 ] (top5 advice);
  (* Advising twice gives byte-identical ranking. *)
  let again = Runner.advise b in
  Alcotest.(check (list int))
    "deterministic"
    (List.map (fun r -> r.Advisor.cost.Costmodel.site) advice.Advisor.sites)
    (List.map (fun r -> r.Advisor.cost.Costmodel.site) again.Advisor.sites);
  (* Every recommended site passed every gate. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "recommended is eligible" true
        (r.Advisor.cost.Costmodel.ineligible = None);
      Alcotest.(check bool) "recommended is forward" true
        r.Advisor.cost.Costmodel.forward;
      Alcotest.(check bool) "recommended saves cycles" true
        (r.Advisor.cycles_saved > 0.0))
    advice.Advisor.recommended

let test_validate_golden_configs () =
  (* The acceptance bar: on the golden workloads the static cycles-saved
     ranking correlates positively with measured per-site recovery. *)
  let check_bench name b ~width ~min_joined =
    let c =
      Sim.advise_validate ~inputs:(Runner.input_indices ()) (Sim.create ()) b
        ~width
    in
    Alcotest.(check bool)
      (name ^ ": enough sites joined")
      true
      (List.length c.Sim.ac_validation.Advisor.joined >= min_joined);
    Alcotest.(check bool)
      (name ^ ": positive rank correlation")
      true
      (c.Sim.ac_validation.Advisor.spearman > 0.0);
    (* The static window-pressure estimate is an upper bound on the
       occupancy the verifier proves for the transformed program. *)
    let max_pressure =
      List.fold_left
        (fun acc r -> max acc r.Advisor.cost.Costmodel.window_pressure)
        0 c.Sim.ac_advice.Advisor.sites
    in
    Alcotest.(check bool)
      (name ^ ": static pressure covers measured occupancy")
      true
      (max_pressure >= c.Sim.ac_max_outstanding)
  in
  check_bench "golden-int" (Lazy.force bench_int) ~width:4 ~min_joined:5;
  check_bench "golden-mem" (Lazy.force bench_mem) ~width:8 ~min_joined:2

(* A recommended site never trips the speculation verifier: transform
   only the advisor's selection (the verifier always runs, and any
   rejected site would raise). Fuzz programs get a permissive profile so
   the advisor sees many candidates. *)
let prop_recommended_sites_verify =
  QCheck2.Test.make ~count:25 ~name:"advised selection passes the verifier"
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let prog = Fuzzgen.generate ~seed in
      let image = Layout.program (Program.copy prog) in
      let profile =
        Bv_profile.Profile.collect
          ~predictor:(Kind.create Kind.Always_not_taken)
          image
      in
      let selection =
        Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog
      in
      let costs = Costmodel.analyze prog in
      let config =
        { Advisor.default_config with
          Advisor.threshold = -2.0;
          Advisor.min_executed = 0;
          Advisor.growth_penalty = 0.0
        }
      in
      let advice = Advisor.advise ~config ~profile costs in
      let keep =
        List.map
          (fun r -> r.Advisor.cost.Costmodel.site)
          advice.Advisor.recommended
      in
      let advised =
        List.filter
          (fun c -> List.mem c.Vanguard.Select.site keep)
          selection.Vanguard.Select.candidates
      in
      (* A recommended candidate must transform cleanly: the cost model
         and the transform apply the same eligibility rules, so nothing
         is skipped. *)
      (Vanguard.Transform.apply ~candidates:advised prog)
        .Vanguard.Transform.skipped
      = [])

let () =
  Alcotest.run "advisor"
    [ ("spearman", [ Alcotest.test_case "spearman" `Quick test_spearman ]);
      ( "costmodel",
        [ Alcotest.test_case "golden-int invariants" `Quick
            test_costmodel_golden_int;
          Alcotest.test_case "loops and classes" `Quick test_classes_and_loops
        ] );
      ( "advise",
        [ Alcotest.test_case "golden-int ranking" `Quick
            test_advise_golden_int
        ] );
      ( "validate",
        [ Alcotest.test_case "golden configs" `Slow
            test_validate_golden_configs
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_recommended_sites_verify ] )
    ]
