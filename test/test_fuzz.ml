(* Whole-program fuzzing: generate random structured programs (straight
   blocks, hammocks, bounded loops, leaf calls), then check every pillar on
   them:

   - the interpreter runs them to completion without faults;
   - the timing model matches the interpreter's architectural digest at
     every width (wrong-path execution, rollback, store buffering ...);
   - the list scheduler preserves semantics program-wide;
   - control-flow recovery round-trips;
   - the Decomposed Branch Transformation preserves semantics on every
     shape-valid site at once, both functionally and through the machine. *)

open Bv_ir

let gen_program seed = Bv_workloads.Fuzzgen.generate ~seed

let digest img = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img)

let seeds = QCheck2.Gen.int_range 0 100_000

let prop_generated_programs_run =
  QCheck2.Test.make ~name:"generated programs validate and halt" ~count:150
    seeds
    (fun seed ->
      let prog = gen_program seed in
      Validate.check_exn prog;
      let st = Bv_exec.Interp.run ~max_instrs:5_000_000 (Layout.program prog) in
      st.Bv_exec.Interp.halted)

let prop_machine_matches_interp =
  QCheck2.Test.make ~name:"machine digest = interpreter digest (all widths)"
    ~count:40 seeds
    (fun seed ->
      let img = Layout.program (gen_program seed) in
      let want = digest img in
      List.for_all
        (fun config ->
          let res = Bv_pipeline.Machine.run ~config img in
          res.Bv_pipeline.Machine.finished
          && res.Bv_pipeline.Machine.arch_digest = want)
        Bv_pipeline.Config.[ two_wide; four_wide; eight_wide ])

let prop_scheduler_preserves_programs =
  QCheck2.Test.make ~name:"program-wide scheduling preserves semantics"
    ~count:100 seeds
    (fun seed ->
      let prog = gen_program seed in
      let want = digest (Layout.program (Program.copy prog)) in
      Bv_sched.Sched.schedule_program prog;
      digest (Layout.program prog) = want)

let prop_recover_roundtrip =
  QCheck2.Test.make ~name:"recovery round-trips generated programs"
    ~count:100 seeds
    (fun seed ->
      let img = Layout.program (gen_program seed) in
      let img2 = Layout.program (Recover.image img) in
      Array.length img.Layout.code = Array.length img2.Layout.code
      && digest img = digest img2)

let shape_valid_candidates prog =
  (* every forward hammock the selector would consider, regardless of
     profile statistics *)
  let image = Layout.program (Program.copy prog) in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Always_not_taken)
      image
  in
  (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog)
    .Vanguard.Select.candidates

let prop_transform_all_sites =
  QCheck2.Test.make
    ~name:"transforming every shape-valid site preserves semantics"
    ~count:60 seeds
    (fun seed ->
      let prog = gen_program seed in
      let want = digest (Layout.program (Program.copy prog)) in
      let candidates = shape_valid_candidates prog in
      let result = Vanguard.Transform.apply ~candidates prog in
      let img = Layout.program result.Vanguard.Transform.program in
      digest img = want
      &&
      let res =
        Bv_pipeline.Machine.run ~config:Bv_pipeline.Config.four_wide img
      in
      res.Bv_pipeline.Machine.finished
      && res.Bv_pipeline.Machine.arch_digest = want)

let prop_transformed_lint_clean =
  QCheck2.Test.make
    ~name:"transformed programs pass the speculation-safety linter"
    ~count:60 seeds
    (fun seed ->
      let prog = gen_program seed in
      let candidates = shape_valid_candidates prog in
      let transformed =
        (Vanguard.Transform.apply ~candidates prog).Vanguard.Transform.program
      in
      let lints_clean p =
        not
          (Bv_analysis.Diagnostic.has_errors
             (Bv_analysis.Speculation.verify
                ~scratch:Vanguard.Transform.default_temp_pool p))
      in
      lints_clean transformed
      && lints_clean (Recover.image (Layout.program transformed)))

let () =
  Alcotest.run "fuzz"
    [ ( "whole-program properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generated_programs_run;
            prop_machine_matches_interp;
            prop_scheduler_preserves_programs;
            prop_recover_roundtrip;
            prop_transform_all_sites;
            prop_transformed_lint_clean
          ] )
    ]
