(* The benchmark harness: regenerates every table and figure of the paper
   (printed as text tables/series), then runs a Bechamel micro-benchmark
   suite over the simulator's core primitives. Per-experiment wall times
   and the emitted tables land in results/bench_<timestamp>.json — the
   perf-trajectory artifact successive PRs compare against — and in
   BENCH_latest.json at the repo root (stable name, always the newest
   run).

   Environment knobs:
     BV_SCALE=<float>    scale workload repetitions (default 1.0)
     BV_EXPERIMENTS=ids  comma-separated subset (default: all)
     BV_JOBS=<n>         worker processes for row-level parallelism
                         (default 1; output is identical at any n)
     BV_CACHE=<dir>      compile-artifact cache (default .bv-cache;
                         'none' disables)
     BV_MICRO=0          skip the Bechamel micro-suite
     BV_BENCH_JSON=path  trajectory artifact destination (default
                         results/bench_<timestamp>.json; empty disables)
     BV_THROUGHPUT_BUDGET=<n>
                         cap retired instructions per throughput run
                         (CI smoke; default unlimited)

   Flags:
     --warmup N          untimed runs before each timed throughput run
                         (default 1)
     --throughput-only   only the simulator-throughput suite (skips
                         experiments and the micro-suite) *)

let run_experiments () =
  let ppf = Format.std_formatter in
  let wanted =
    match Sys.getenv_opt "BV_EXPERIMENTS" with
    | Some ids ->
      (* BV_EXPERIMENTS= (empty) cleanly skips the experiment suite *)
      List.filter (fun id -> id <> "") (String.split_on_char ',' ids)
    | None -> List.map (fun (id, _, _) -> id) Bv_harness.Experiments.all
  in
  Format.fprintf ppf
    "Branch Vanguard reproduction — every table and figure (scale %.2f, \
     %d job%s)@."
    (Bv_harness.Runner.scale ())
    (Bv_harness.Sim.jobs (Bv_harness.Sim.the ()))
    (if Bv_harness.Sim.jobs (Bv_harness.Sim.the ()) = 1 then "" else "s");
  ignore (Bv_harness.Experiments.drain_tables ());
  List.filter_map
    (fun id ->
      match Bv_harness.Experiments.find id with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        f ppf;
        let seconds = Unix.gettimeofday () -. t0 in
        Format.fprintf ppf "(%s took %.1fs)@." id seconds;
        Some (id, seconds, Bv_harness.Experiments.drain_tables ())
      | None ->
        Format.fprintf ppf "unknown experiment %s@." id;
        None)
    wanted

(* ----------------------------------------------------------- throughput *)

(* End-to-end simulator throughput: fixed workloads timed straight through
   Machine.run, reported as host seconds, simulated cycles/second and
   simulated MIPS. These rows in the bench JSON are the regression
   baseline successive performance PRs quote and compare against. *)

let throughput_cases () =
  let open Bv_workloads in
  let baseline_of program =
    let p = Bv_ir.Program.copy program in
    Bv_sched.Sched.schedule_program p;
    p
  in
  let scaled r =
    max 1 (int_of_float (Float.round (float_of_int r *. Bv_harness.Runner.scale ())))
  in
  let spec_int =
    Spec.make ~name:"tp-int" ~suite:Spec.Int_2006 ~seed:7001
      ~branch_classes:
        [ Spec.cls ~count:6 ~taken_rate:0.60 ~predictability:0.95 ();
          Spec.cls ~iid:true ~count:4 ~taken_rate:0.92 ~predictability:0.92 ();
          Spec.cls ~iid:true ~count:2 ~taken_rate:0.50 ~predictability:0.50 ()
        ]
      ~loads_per_block:3.0 ~cond_depth:4 ~inner_n:128 ~reps:(scaled 60) ()
  in
  let spec_mem =
    Spec.make ~name:"tp-mem" ~suite:Spec.Fp_2006 ~seed:7002
      ~branch_classes:
        [ Spec.cls ~count:4 ~taken_rate:0.58 ~predictability:0.96 () ]
      ~loads_per_block:4.0 ~footprint_kb:128 ~chase_frac:0.2 ~cond_chase:true
      ~inner_n:64 ~reps:(scaled 100) ()
  in
  let plain spec =
    Bv_ir.Layout.program (baseline_of (Gen.generate ~input:1 spec))
  in
  let decomposed spec =
    let program = Gen.generate ~input:1 spec in
    let train = Gen.generate ~input:0 spec in
    let profile =
      Bv_profile.Profile.collect
        ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
        (Bv_ir.Layout.program (baseline_of train))
    in
    let selection = Vanguard.Select.select ~profile train in
    let result =
      Vanguard.Transform.apply ~exit_live:Gen.live_at_exit
        ~candidates:selection.Vanguard.Select.candidates program
    in
    Bv_ir.Layout.program result.Vanguard.Transform.program
  in
  let runahead8 =
    { (Bv_pipeline.Config.make ~predictor:Bv_bpred.Kind.Tage ~width:8 ()) with
      Bv_pipeline.Config.runahead = true
    }
  in
  [ ("int_w4", Bv_pipeline.Config.four_wide, plain spec_int);
    ("int_decomposed_w4", Bv_pipeline.Config.four_wide, decomposed spec_int);
    ("mem_runahead_w8", runahead8, plain spec_mem);
    ("mem_decomposed_runahead_w8", runahead8, decomposed spec_mem)
  ]

type throughput_row =
  { tp_workload : string;
    tp_mode : string;  (* "compiled" | "interpreted" | "sampled" *)
    tp_host_seconds : float;
    tp_sim_cycles : int;
    tp_sim_instructions : int;
    tp_cycles_per_sec : float;
    tp_mips : float
  }

(* Attaching any observer makes a run step every cycle. *)
let no_op_cycle ~cycle:_ ~stats:_ ~dbb_occupancy:_ = ()

(* Every workload is timed in all three execution modes: "compiled", an
   unobserved run (stall skipping on); "interpreted", a stepped run (a
   no-op [on_cycle] observer turns stall skipping off; byte-identical);
   and SMARTS interval sampling (estimated cycles — fastest, approximate
   timing). The mode rides in the row so the trend analysis never
   compares across modes. *)
let run_throughput ~warmup =
  let budget =
    match Sys.getenv_opt "BV_THROUGHPUT_BUDGET" with
    | Some s -> (try int_of_string s with Failure _ -> max_int)
    | None -> max_int
  in
  Printf.printf "\n=== Simulator throughput (warmup %d%s) ===\n" warmup
    (if budget = max_int then ""
     else Printf.sprintf ", budget %d instrs" budget);
  Printf.printf "  %-28s %-12s %9s %13s %14s %9s\n" "workload" "mode"
    "host s" "sim cycles" "sim cycles/s" "sim MIPS";
  List.concat_map
    (fun (name, config, image) ->
      let timed mode run extract =
        for _ = 1 to warmup do
          ignore (run ())
        done;
        let t0 = Unix.gettimeofday () in
        let res = run () in
        let host = Unix.gettimeofday () -. t0 in
        let cycles, retired = extract res in
        let per s = if host > 0. then float_of_int s /. host else 0. in
        let row =
          { tp_workload = name;
            tp_mode = mode;
            tp_host_seconds = host;
            tp_sim_cycles = cycles;
            tp_sim_instructions = retired;
            tp_cycles_per_sec = per cycles;
            tp_mips = per retired /. 1e6
          }
        in
        Printf.printf "  %-28s %-12s %9.3f %13d %14.0f %9.2f\n%!" name mode
          host cycles row.tp_cycles_per_sec row.tp_mips;
        row
      in
      let detailed (res : Bv_pipeline.Machine.result) =
        ( res.Bv_pipeline.Machine.stats.Bv_pipeline.Stats.cycles,
          Bv_pipeline.Stats.retired res.Bv_pipeline.Machine.stats )
      in
      (* the sampled row reports the extrapolated cycle estimate; the
         retired-instruction budget does not apply (sampling already
         bounds the detailed work) *)
      let sampled (s : Bv_pipeline.Machine.sampled) =
        ( int_of_float
            s.Bv_pipeline.Machine.sam_estimate.Bv_pipeline.Smarts.est_cycles,
          s.Bv_pipeline.Machine.sam_estimate
            .Bv_pipeline.Smarts.est_total_instrs )
      in
      (* Mode names are trend keys: renaming one resets the trend gate. *)
      let compiled_row =
        timed "compiled"
          (fun () ->
            Bv_pipeline.Machine.run ~max_retired:budget ~config image)
          detailed
      in
      let interpreted_row =
        timed "interpreted"
          (fun () ->
            Bv_pipeline.Machine.run ~on_cycle:no_op_cycle ~max_retired:budget
              ~config image)
          detailed
      in
      let sampled_row =
        timed "sampled"
          (fun () -> Bv_pipeline.Machine.run_sampled ~config image)
          sampled
      in
      [ compiled_row; interpreted_row; sampled_row ])
    (throughput_cases ())

(* ---------------------------------------------------------------- micro *)

open Bechamel
open Toolkit

let micro_tests () =
  let open Bv_isa in
  let open Bv_ir in
  let r = Reg.make in
  (* predictor lookup/update micro *)
  let pred_test name kind =
    let p = Bv_bpred.Kind.create kind in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           let taken = !i land 3 <> 0 in
           let pc = 0x40 + (!i land 63) in
           let _, meta = p.Bv_bpred.Predictor.predict ~pc ~outcome:taken in
           p.Bv_bpred.Predictor.update meta ~pc ~taken))
  in
  (* cache access micro *)
  let cache_test =
    let h = Bv_cache.Hierarchy.create () in
    let i = ref 0 in
    Test.make ~name:"cache.data_access"
      (Staged.stage (fun () ->
           i := (!i + 4096) land 0xFFFFF;
           ignore (Bv_cache.Hierarchy.data_access h ~addr:!i ~write:false)))
  in
  (* whole-pipeline micro: simulate a small benchmark end to end *)
  let tiny =
    Bv_workloads.Spec.make ~name:"micro" ~suite:Bv_workloads.Spec.Int_2006
      ~seed:5
      ~branch_classes:
        [ Bv_workloads.Spec.cls ~count:4 ~taken_rate:0.6 ~predictability:0.95
            ()
        ]
      ~inner_n:32 ~reps:2 ()
  in
  let tiny_image =
    Layout.program (Bv_workloads.Gen.generate ~input:1 tiny)
  in
  let machine_test =
    Test.make ~name:"machine.run (tiny benchmark)"
      (Staged.stage (fun () ->
           ignore
             (Bv_pipeline.Machine.run ~config:Bv_pipeline.Config.four_wide
                tiny_image)))
  in
  (* stall skipping in isolation: the same tiny run unobserved vs
     stepped by a no-op observer *)
  let machine_mode_test mode on_cycle =
    Test.make
      ~name:(Printf.sprintf "machine.run-%s (tiny benchmark)" mode)
      (Staged.stage (fun () ->
           ignore
             (Bv_pipeline.Machine.run ?on_cycle
                ~config:Bv_pipeline.Config.four_wide tiny_image)))
  in
  (* fetch/pending ring and release-calendar micros: the structures every
     simulated cycle turns over *)
  let ring_test =
    let open Bv_pipeline.Machine_state in
    let ring = Ring.create 64 in
    let i = ref 0 in
    Test.make ~name:"machine.ring push/pop x4"
      (Staged.stage (fun () ->
           incr i;
           Ring.push ring !i;
           Ring.push ring (!i + 1);
           Ring.push ring (!i + 2);
           Ring.push ring (!i + 3);
           ignore (Ring.pop ring);
           ignore (Ring.pop ring);
           ignore (Ring.pop ring);
           ignore (Ring.pop ring)))
  in
  let release_test =
    let open Bv_pipeline.Machine_state in
    let cal = Release.create ~horizon:512 in
    let now = ref 0 in
    Test.make ~name:"machine.release schedule/drain"
      (Staged.stage (fun () ->
           incr now;
           Release.schedule cal ~at:(!now + 40);
           Release.drain cal ~now:!now))
  in
  let interp_test =
    Test.make ~name:"interp.run (tiny benchmark)"
      (Staged.stage (fun () -> ignore (Bv_exec.Interp.run tiny_image)))
  in
  (* transformation micro *)
  let transform_test =
    let prog = Bv_workloads.Gen.generate ~input:0 tiny in
    let image = Layout.program (Program.copy prog) in
    let predictor = Bv_bpred.Kind.create Bv_bpred.Kind.Tournament in
    let profile = Bv_profile.Profile.collect ~predictor image in
    let sel = Vanguard.Select.select ~profile prog in
    Test.make ~name:"transform.apply"
      (Staged.stage (fun () ->
           ignore
             (Vanguard.Transform.apply
                ~candidates:sel.Vanguard.Select.candidates prog)))
  in
  let sched_test =
    let body =
      List.concat
        (List.init 8 (fun k ->
             [ Instr.Load { dst = r (10 + (k mod 6)); base = r 2;
                            offset = 8 * k; speculative = false };
               Instr.Alu { op = Instr.Add; dst = r 6; src1 = r 6;
                           src2 = Instr.Reg (r (10 + (k mod 6))) }
             ]))
    in
    Test.make ~name:"sched.schedule_body (16 instrs)"
      (Staged.stage (fun () ->
           ignore (Bv_sched.Sched.schedule_body ~term:Term.Halt body)))
  in
  let encode_test =
    let resolve _ = 0 in
    let i =
      Instr.Alu { op = Instr.Add; dst = r 1; src1 = r 2; src2 = Instr.Imm 5 }
    in
    Test.make ~name:"encoding.encode+decode"
      (Staged.stage (fun () ->
           ignore
             (Encoding.decode
                ~label_of:(fun _ -> "x")
                (Encoding.encode ~resolve i))))
  in
  let liveness_test =
    let proc =
      Program.find_proc (Bv_workloads.Gen.generate ~input:0 tiny) "micro.w0"
    in
    Test.make ~name:"liveness.compute (worker proc)"
      (Staged.stage (fun () -> ignore (Liveness.compute proc)))
  in
  let recover_test =
    Test.make ~name:"recover.image (tiny benchmark)"
      (Staged.stage (fun () -> ignore (Recover.image tiny_image)))
  in
  Test.make_grouped ~name:"vanguard-micro"
    [ pred_test "bpred.tournament" Bv_bpred.Kind.Tournament;
      pred_test "bpred.perceptron" Bv_bpred.Kind.Perceptron;
      pred_test "bpred.tage" Bv_bpred.Kind.Tage;
      pred_test "bpred.isl-tage" Bv_bpred.Kind.Isl_tage;
      cache_test;
      ring_test;
      release_test;
      sched_test;
      encode_test;
      liveness_test;
      recover_test;
      transform_test;
      interp_test;
      machine_test;
      machine_mode_test "compiled" None;
      machine_mode_test "interpreted" (Some no_op_cycle)
    ]

let run_micro () =
  print_endline "\n=== Bechamel micro-benchmarks ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        Printf.printf "  %-34s %12.1f ns/run\n" name est;
        estimates := (name, est) :: !estimates
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    results;
  List.sort (fun (a, _) (b, _) -> compare a b) !estimates

(* ------------------------------------------------------------- artifact *)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let write_artifact ~started_at ~experiments ~throughput ~warmup ~micro
    ~total_seconds =
  let open Bv_obs.Json in
  let path =
    match Sys.getenv_opt "BV_BENCH_JSON" with
    | Some p -> if p = "" then None else Some p
    | None ->
      let tm = Unix.gmtime started_at in
      Some
        (Filename.concat "results"
           (Printf.sprintf "bench_%04d%02d%02dT%02d%02d%02dZ.json"
              (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
              tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec))
  in
  match path with
  | None -> ()
  | Some path ->
    let doc =
      Obj
        [ ("schema_version", Int Bv_obs.Json.schema_version);
          ("generated_at", String (iso8601 started_at));
          ("scale", float (Bv_harness.Runner.scale ()));
          ("total_seconds", float total_seconds);
          ( "experiments",
            List
              (List.map
                 (fun (id, seconds, tables) ->
                   Obj
                     [ ("id", String id);
                       ("seconds", float seconds);
                       ( "tables",
                         List
                           (List.map Bv_harness.Experiments.table_to_json
                              tables) )
                     ])
                 experiments) );
          ("throughput_warmup", Int warmup);
          ( "throughput",
            List
              (List.map
                 (fun r ->
                   Obj
                     [ ("workload", String r.tp_workload);
                       ("mode", String r.tp_mode);
                       ("host_seconds", float r.tp_host_seconds);
                       ("sim_cycles", Int r.tp_sim_cycles);
                       ("sim_instructions", Int r.tp_sim_instructions);
                       ("sim_cycles_per_sec", float r.tp_cycles_per_sec);
                       ("sim_mips", float r.tp_mips)
                     ])
                 throughput) );
          ( "micro_ns_per_run",
            Obj (List.map (fun (name, est) -> (name, float est)) micro) );
          ( "dag",
            Bv_harness.Sim.counters_json (Bv_harness.Sim.the ()) )
        ]
    in
    (try
       if Filename.dirname path = "results" && not (Sys.file_exists "results")
       then Sys.mkdir "results" 0o755;
       Out_channel.with_open_text path (fun oc ->
           Bv_obs.Json.to_channel ~indent:true oc doc);
       Printf.printf "trajectory artifact: %s\n" path;
       (* also a stable name, so diffing tools and CI steps can find the
          most recent run without globbing timestamps *)
       Out_channel.with_open_text "BENCH_latest.json" (fun oc ->
           Bv_obs.Json.to_channel ~indent:true oc doc)
     with Sys_error e -> Printf.eprintf "artifact write failed: %s\n" e)

(* ---------------------------------------------------------------- trend *)

(* `bench trend`: fold the accumulated results/bench_*.json trajectory
   into a regression verdict. Prints one `bench-trend ok:/warning:/error:`
   line per workload (the CI problem matcher keys on that prefix) and
   exits non-zero on a gating regression. *)
let run_trend argv =
  let open Bv_harness in
  let dir = ref "results" in
  let latest = ref "" in
  let threshold = ref 10.0 in
  let warn_only = ref false in
  let json = ref "" in
  let usage =
    "bench trend [--dir DIR] [--latest FILE] [--threshold PCT] [--warn-only] \
     [--json FILE]"
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv
       [ ("--dir", Arg.Set_string dir, "DIR trajectory directory (default \
                                        results)");
         ( "--latest",
           Arg.Set_string latest,
           "FILE run under test (default: newest bench_*.json in DIR)" );
         ( "--threshold",
           Arg.Set_float threshold,
           "PCT regression threshold in percent (default 10)" );
         ( "--warn-only",
           Arg.Set warn_only,
           " report regressions without failing the exit code" );
         ("--json", Arg.Set_string json, "FILE write the verdicts as JSON")
       ]
       (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
       usage
   with
  | Arg.Bad msg -> prerr_string msg; exit 2
  | Arg.Help msg -> print_string msg; exit 0);
  let all = Trend.history ~dir:!dir in
  let latest_run, history =
    if !latest <> "" then begin
      match Trend.load_run !latest with
      | Error e -> Printf.eprintf "bench-trend error: %s\n" e; exit 2
      | Ok run ->
        (* keep the run under test out of its own reference history *)
        (Some run, List.filter (fun r -> r.Trend.file <> run.Trend.file) all)
    end
    else
      match List.rev all with
      | newest :: older -> (Some newest, List.rev older)
      | [] -> (None, [])
  in
  match latest_run with
  | None ->
    Printf.printf "bench-trend: no bench_*.json artifacts under %s\n" !dir;
    exit 0
  | Some run ->
    let summary = Trend.analyze ~threshold_pct:!threshold ~history run in
    Printf.printf "bench trend: %s vs %d prior run%s (threshold %.0f%%)\n"
      run.Trend.file summary.Trend.s_runs
      (if summary.Trend.s_runs = 1 then "" else "s")
      summary.Trend.s_threshold_pct;
    if summary.Trend.s_runs = 0 then
      Printf.printf
        "bench-trend note: no history under %s — this run seeds the \
         trajectory; verdicts below are baselines, not comparisons\n"
        !dir;
    List.iter
      (fun v ->
        if v.Trend.v_history = 0 then
          Printf.printf "bench-trend seed: %s %.0f cycles/s (no history)\n"
            v.Trend.v_workload v.Trend.v_latest
        else
          let line =
            Printf.sprintf
              "%s %.0f cycles/s vs median %.0f (%+.1f%%, history %d)"
              v.Trend.v_workload v.Trend.v_latest v.Trend.v_median
              v.Trend.v_delta_pct v.Trend.v_history
          in
          if not v.Trend.v_regressed then
            Printf.printf "bench-trend ok: %s\n" line
          else if summary.Trend.s_gating && not !warn_only then
            Printf.printf "bench-trend error: %s\n" line
          else Printf.printf "bench-trend warning: %s\n" line)
      summary.Trend.s_verdicts;
    if !json <> "" then
      Out_channel.with_open_text !json (fun oc ->
          Bv_obs.Json.to_channel ~indent:true oc
            (Trend.to_json ~latest:run summary));
    let regressed = Trend.regressions summary <> [] in
    if regressed && not summary.Trend.s_gating then
      Printf.printf
        "bench-trend warning: regression seen but only %d prior run%s — \
         warn-only until the trajectory has 2\n"
        summary.Trend.s_runs
        (if summary.Trend.s_runs = 1 then "" else "s");
    if regressed && summary.Trend.s_gating && not !warn_only then exit 1
    else exit 0

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "trend" then
    run_trend
      (Array.append [| Sys.argv.(0) ^ " trend" |]
         (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)));
  let warmup = ref 1 in
  let throughput_only = ref false in
  Arg.parse
    [ ( "--warmup",
        Arg.Set_int warmup,
        "N untimed runs before each timed throughput run (default 1)" );
      ( "--throughput-only",
        Arg.Set throughput_only,
        " only the simulator-throughput suite (skips experiments and the \
         micro-suite)" )
    ]
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    "bench [--warmup N] [--throughput-only] | bench trend [--help]";
  let t0 = Unix.gettimeofday () in
  let experiments = if !throughput_only then [] else run_experiments () in
  let throughput = run_throughput ~warmup:!warmup in
  let micro =
    if !throughput_only then []
    else
      match Sys.getenv_opt "BV_MICRO" with
      | Some "0" -> []
      | _ -> run_micro ()
  in
  let total_seconds = Unix.gettimeofday () -. t0 in
  write_artifact ~started_at:t0 ~experiments ~throughput ~warmup:!warmup ~micro
    ~total_seconds;
  Printf.printf "\ntotal wall time: %.1fs\n" total_seconds
