(* Stall skipping is exact.

   An unobserved [Machine.run] fast-forwards provable stall cycles; any
   observer makes it step every cycle. The stepped run is the reference:
   the unobserved run's full result JSON (every Stats counter, cache
   hierarchy stats) and both architectural digests must equal those of a
   run stepped by a no-op [on_cycle] observer.

   - fuzzed: random structured programs across widths and under
     runahead;
   - real benchmarks: four suite configurations, both sides of the
     transform, at a tenth of their calibrated repetitions. *)

open Bv_bpred
open Bv_ir
open Bv_pipeline
open Bv_workloads

let no_op_cycle ~cycle:_ ~stats:_ ~dbb_occupancy:_ = ()
let result_string res = Bv_obs.Json.to_string (Machine.result_to_json res)

(* [Some msg] when the two runs of [image] under [config] differ. *)
let divergence config image =
  let a = Machine.run ~config image in
  let b = Machine.run ~on_cycle:no_op_cycle ~config image in
  if result_string a <> result_string b then Some "result JSON differs"
  else if a.Machine.mem_digest <> b.Machine.mem_digest then
    Some "mem_digest differs"
  else if a.Machine.arch_digest <> b.Machine.arch_digest then
    Some "arch_digest differs"
  else None

let configs =
  Config.
    [ two_wide;
      four_wide;
      eight_wide;
      { (make ~predictor:Kind.Tage ~width:8 ()) with runahead = true }
    ]

let prop_stall_skip =
  QCheck2.Test.make ~name:"unobserved run = stepped run (no-op on_cycle)"
    ~count:30
    (QCheck2.Gen.int_range 0 100_000)
    (fun seed ->
      let image = Layout.program (Fuzzgen.generate ~seed) in
      List.for_all (fun config -> divergence config image = None) configs)

(* (benchmark, width, predictor): one branchy and one memory-bound
   program per width, on three predictor families. *)
let bench_cases =
  [ ("perlbench", 4, Kind.Tournament);
    ("gcc", 4, Kind.Tage);
    ("mcf", 8, Kind.Tournament);
    ("astar", 8, Kind.Isl_tage)
  ]

let test_bench (name, width, predictor) () =
  let spec = Option.get (Suites.find name) in
  let reps =
    max 2 (Float.to_int (Float.round (Float.of_int spec.Spec.reps *. 0.1)))
  in
  let b = Bv_harness.Runner.prepare { spec with Spec.reps } in
  let config = Config.make ~predictor ~width () in
  List.iter
    (fun (side, image) ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s w%d %s %s" name width (Kind.name predictor) side)
        None (divergence config image))
    [ ("baseline", Bv_harness.Runner.baseline_program b ~input:1);
      ("experimental", Bv_harness.Runner.experimental_program b ~input:1)
    ]

let () =
  Alcotest.run "bv_stall_skip"
    [ ("byte-identity", [ QCheck_alcotest.to_alcotest prop_stall_skip ]);
      ( "benchmarks",
        List.map
          (fun ((name, width, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s w%d" name width)
              `Quick (test_bench case))
          bench_cases )
    ]
