(* Command-line driver: run benchmarks, inspect profiles and
   transformations, and regenerate the paper's experiments. *)

open Bv_bpred
open Bv_harness
open Bv_ir
open Bv_pipeline
open Bv_workloads
open Cmdliner
module Json = Bv_obs.Json
module Diagnostic = Bv_analysis.Diagnostic

(* -------------------------------------------------------------- options *)

(* Converters that reject a value before any work, so it is a usage
   error (exit 124) naming the value rather than a failure mid-run. *)
let checked_conv ~expected of_string print accept =
  let parse s =
    match of_string s with
    | Some n when accept n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
  in
  Arg.conv (parse, print)

let int_conv ~expected =
  checked_conv ~expected int_of_string_opt Format.pp_print_int

let positive = int_conv ~expected:"a positive integer" (fun n -> n > 0)
let non_negative = int_conv ~expected:"an integer >= 0" (fun n -> n >= 0)

let float_conv ~expected =
  checked_conv ~expected Float.of_string_opt Format.pp_print_float

let finite = float_conv ~expected:"a finite number" Float.is_finite

let finite_non_negative =
  float_conv ~expected:"a finite number >= 0" (fun f ->
      Float.is_finite f && f >= 0.0)

let spec_conv =
  let parse name =
    match Suites.find name with
    | Some spec -> Ok spec
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown benchmark %s (try `vanguard_cli list`)"
             name))
  in
  Arg.conv (parse, fun ppf spec -> Format.pp_print_string ppf spec.Spec.name)

let bench_arg =
  let doc = "Benchmark name (see `vanguard_cli list`)." in
  Arg.(required & opt (some spec_conv) None & info [ "b"; "benchmark" ] ~doc)

(* The options of the commands that take any number of targets. *)
let benches_arg doc =
  Arg.(value & opt_all spec_conv [] & info [ "b"; "benchmark" ] ~doc)

let files_arg doc = Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
let flag_arg names doc = Arg.(value & flag & info names ~doc)
let suites_arg = flag_arg [ "suites" ]
let all_arg = flag_arg [ "all" ]
let transformed_arg = flag_arg [ "transformed" ]

let fuzz_arg doc =
  Arg.(value & opt (some non_negative) None & info [ "fuzz" ] ~docv:"N" ~doc)

let dbb_arg doc =
  Arg.(value & opt positive 16 & info [ "dbb" ] ~docv:"ENTRIES" ~doc)

let top_arg doc =
  Arg.(value & opt non_negative 10 & info [ "top" ] ~docv:"N" ~doc)

let width_arg =
  let doc = "Machine width: 2, 4 or 8." in
  Arg.(
    value
    & opt (int_conv ~expected:"2, 4 or 8" (fun w -> List.mem w [ 2; 4; 8 ])) 4
    & info [ "w"; "width" ] ~doc)

let input_arg =
  let doc = "REF input index (1-based; 0 is the TRAIN input)." in
  let expected = Printf.sprintf "an input from 0 to %d" Suites.ref_inputs in
  Arg.(
    value
    & opt (int_conv ~expected (fun i -> i >= 0 && i <= Suites.ref_inputs)) 1
    & info [ "i"; "input" ] ~doc)

let predictor_arg =
  let doc = "Branch predictor (bimodal, gshare, tournament, tage, isl-tage, \
             perfect)." in
  let parse s =
    match Kind.of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg ("unknown predictor " ^ s))
  in
  let print ppf k = Format.pp_print_string ppf (Kind.name k) in
  Arg.(
    value
    & opt (conv (parse, print)) Kind.Tournament
    & info [ "p"; "predictor" ] ~doc)

let interproc_arg =
  let doc =
    "Interprocedural mode: compute per-procedure summaries (register mod \
     sets, memory-write footprints, purity classes) bottom-up over the \
     call-graph SCCs and let the analyses use them at calls instead of \
     worst-case havoc."
  in
  Arg.(
    value & flag
    & info [ "interproc" ] ~doc ~env:(Cmd.Env.info "BV_INTERPROC"))

let werror_arg =
  flag_arg [ "werror" ]
    "Treat warning-severity diagnostics as errors for the exit status. \
     Info diagnostics never affect it."

(* ------------------------------------------------------------ telemetry *)

let json_arg =
  let doc = "Write a structured JSON report to $(docv) ('-' for stdout)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Write a Chrome/Perfetto trace of both runs to $(docv) ('-' for \
     stdout); open it at ui.perfetto.dev or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let sample_interval_arg =
  let doc = "Interval-sampler window in cycles (for --json)." in
  Arg.(
    value
    & opt (some positive) None
    & info [ "sample-interval" ] ~doc ~docv:"CYCLES")

let write_json path json =
  try
    if path = "-" then begin
      Json.to_channel ~indent:true stdout json;
      (* a full stdout fails here, not in the flush at exit, which
         would end the process with an uncaught exception *)
      flush stdout
    end
    else
      Out_channel.with_open_text path (fun oc ->
          Json.to_channel ~indent:true oc json;
          (* reports a failing final flush (a full disk), which the
             implicit close drops: the report would be lost silently *)
          Out_channel.close oc)
  with Sys_error e ->
    (* an open error names the file already; a write error does not *)
    let e = if String.starts_with ~prefix:path e then e else path ^ ": " ^ e in
    prerr_endline ("error: cannot write " ^ e);
    (* drop what stdout still holds, or flushing it at exit raises again *)
    if path = "-" then close_out_noerr stdout;
    exit 1

(* Every --json report: the schema version, the command's [fields], and
   last the run's DAG provenance — how many pipeline nodes were
   memo/store hits, computed here, or computed by a cooperating process.
   The counters are read here, once every field is computed, so they
   count every node the report evaluated. *)
let write_report path fields =
  write_json path
    (Json.Obj
       ((("schema_version", Json.Int Json.schema_version) :: fields)
       @ [ ("dag", Sim.counters_json (Sim.the ())) ]))

let obj_fields = function Json.Obj fields -> fields | _ -> []

(* With --json - the report owns stdout; the text goes to stderr. *)
let text_ppf json =
  if json = Some "-" then Format.err_formatter else Format.std_formatter

(* ------------------------------------------------------------- targets *)

(* A hidden-ISA source file, or why it cannot be loaded: the read
   error, or the parse or validation error at its line. *)
let read_program path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
    (* an open error names the file already; a read error does not *)
    Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)
  | text -> (
    match Asm.program text with
    | exception Asm.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
    | prog -> Ok prog)

(* The programs of [files] that load, each named by its path; one that
   does not is reported and sets [failed]. *)
let load_files failed files =
  List.filter_map
    (fun path ->
      match read_program path with
      | Ok prog -> Some (path, prog)
      | Error e ->
        prerr_endline e;
        failed := true;
        None)
    files

(* A command left with no target says what it takes and fails, unless
   a file that did not load has said why already. *)
let no_targets failed message =
  if not !failed then begin
    prerr_endline message;
    failed := true
  end

let transformed_program spec =
  (Runner.transform (Sim.bench (Sim.the ()) spec)).Vanguard.Transform.program

let summaries_if interproc prog =
  if interproc then Some (Bv_analysis.Summary.compute prog) else None

(* [f] over the --fuzz N corpus (empty without --fuzz), fanned out
   across the session's workers: each seed, its program and the
   program's profile under an always-not-taken predictor, which makes
   every branch a candidate. *)
let fuzz_corpus fuzz f =
  Sim.map (Sim.the ())
    (fun seed ->
      let prog = Fuzzgen.generate ~seed in
      let profile =
        Bv_profile.Profile.collect
          ~predictor:(Kind.create Kind.Always_not_taken)
          (Layout.program (Program.copy prog))
      in
      f seed prog profile)
    (List.init (Option.value fuzz ~default:0) Fun.id)

(* ---------------------------------------------------------- diagnostics *)

(* Error, warning and info totals over (target, diagnostics) pairs. *)
let tallies results =
  let count sev =
    List.fold_left (fun n (_, ds) -> n + Diagnostic.count sev ds) 0 results
  in
  (count Diagnostic.Error, count Diagnostic.Warning, count Diagnostic.Info)

(* One target's diagnostics report, led by its name and [fields]. *)
let target_json name fields diags =
  Json.Obj
    ((("target", Json.String name) :: fields)
    @ obj_fields (Diagnostic.report_to_json diags))

let print_diagnostics name diags =
  List.iter
    (fun d -> Format.printf "%s: %a@." name Diagnostic.pp d)
    (Diagnostic.sort diags)

let diagnostics_status ~failed ~werror (errors, warnings, _) =
  if failed || errors > 0 || (werror && warnings > 0) then 1 else 0

(* ------------------------------------------------------- interprocedural *)

let summary_stats prog =
  Bv_analysis.Summary.stats_json (Bv_analysis.Summary.compute prog)

(* ["summary_stats"] of each benchmark's TRAIN program, by name. *)
let bench_summary_stats specs =
  ( "summary_stats",
    Json.Obj
      (List.map
         (fun spec ->
           (spec.Spec.name, summary_stats (Gen.generate ~input:0 spec)))
         specs) )

(* ----------------------------------------------------------------- list *)

let list_cmd =
  let run () =
    print_endline "Benchmarks:";
    List.iter
      (fun s ->
        Printf.printf "  %-12s %s\n" s.Spec.name (Spec.suite_name s.Spec.suite))
      Suites.all;
    print_endline "\nExperiments:";
    List.iter
      (fun (id, desc, _) -> Printf.printf "  %-10s %s\n" id desc)
      Experiments.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and experiments.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ run *)

(* A simulation report's opening fields, [inputs] being the field that
   names the input or inputs it ran. *)
let bench_fields spec ~width predictor inputs =
  [ ("benchmark", Json.String spec.Spec.name);
    ("suite", Json.String (Spec.suite_name spec.Spec.suite));
    ("width", Json.Int width);
    ("predictor", Json.String (Kind.name predictor));
    inputs;
    ("scale", Json.float (Runner.scale ()))
  ]

let run_cmd =
  let run spec width input predictor json trace sample_interval =
    let sim = Sim.the () in
    let b = Sim.prepare ~predictor sim spec in
    let config = Config.make ~predictor ~width () in
    let telemetry = json <> None || trace <> None in
    (* With telemetry each side is a fresh, stepped run with a sampler
       over its cycle accounting and (when --trace) a Perfetto collector;
       pids 1/2 keep the two runs side by side in one trace document.
       Otherwise each side is its DAG node. *)
    let side pid process_name img =
      if telemetry then begin
        let tr =
          if trace = None then None
          else Some (Perfetto.create ~pid ~process_name ())
        in
        let observer =
          Runner.observer ?interval:sample_interval
            ?on_event:(Option.map Perfetto.on_event tr)
            img
        in
        (Runner.simulate ~observer ~config img, Some (observer, tr))
      end
      else (Sim.simulate sim ~config img, None)
    in
    let base, base_obs = side 1 "baseline" (Runner.baseline b ~input) in
    let exp, exp_obs = side 2 "vanguard" (Runner.experimental b ~input) in
    let speedup =
      Runner.speedup_pct ~base:base.Runner.stats.Stats.cycles
        ~exp:exp.Runner.stats.Stats.cycles
    in
    let ppf = text_ppf json in
    let show tag (r : Runner.run) =
      Format.fprintf ppf "--- %s ---@.%a@.L1-D miss rate %.3f@.@." tag
        Stats.pp r.Runner.stats
        (Bv_cache.Sa_cache.stats_miss_rate r.Runner.l1d)
    in
    Format.fprintf ppf "%s, %d-wide, %s, input %d@.@." spec.Spec.name width
      (Kind.name predictor) input;
    show "baseline" base;
    show "decomposed-branch (vanguard)" exp;
    Format.fprintf ppf "speedup: %+.2f%%@." speedup;
    (match (json, base_obs, exp_obs) with
    | Some path, Some (bo, _), Some (eo, _) ->
      let side (r : Runner.run) o =
        Json.Obj
          (obj_fields (Runner.run_to_json r)
          @ [ ("samples", Sampler.to_json (Runner.samples o));
              ("cpi_stack", Acct.cpi_stack_json r.Runner.acct);
              ("top_branches", Acct.top_branches_json r.Runner.acct)
            ])
      in
      write_report path
        (bench_fields spec ~width predictor ("input", Json.Int input)
        @ [ ("summary_stats", summary_stats (Gen.generate ~input spec));
            ("speedup_pct", Json.float speedup);
            ("baseline", side base bo);
            ("experimental", side exp eo)
          ])
    | _ -> ());
    (match (trace, base_obs, exp_obs) with
    | Some path, Some (bo, Some bt), Some (eo, Some et) ->
      (* counter tracks ride the same pids as the span lanes, so the CPI
         stack overlays each run's instruction view *)
      write_json path
        (Bv_obs.Trace_event.document
           (Perfetto.events bt
           @ Perfetto.cpi_counter_events ~pid:1
               (Sampler.windows (Runner.samples bo))
           @ Perfetto.events et
           @ Perfetto.cpi_counter_events ~pid:2
               (Sampler.windows (Runner.samples eo))))
    | _ -> ());
    0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate one benchmark, baseline vs transformed, and report \
          (optionally as JSON and a Perfetto trace).")
    Term.(
      const run $ bench_arg $ width_arg $ input_arg $ predictor_arg
      $ json_arg $ trace_arg $ sample_interval_arg)

(* --------------------------------------------------------------- report *)

(* Where did the cycles go? Baseline vs decomposed CPI stacks side by
   side, plus the per-site attribution join that shows which branches
   the transform actually helped. *)
let report_cmd =
  let run spec width input all predictor top json =
    let sim = Sim.the () in
    let b = Sim.prepare ~predictor sim spec in
    let inputs = if all then Runner.input_indices () else [ input ] in
    (* each side of each input is its DAG node; the accounting merges
       pointwise across inputs *)
    let runs =
      List.map (fun input -> Sim.pair ~predictor sim b ~input ~width) inputs
    in
    let base = Runner.merged_acct (List.map fst runs)
    and exp = Runner.merged_acct (List.map snd runs) in
    let btotal = Acct.total base and etotal = Acct.total exp in
    let speedup = Runner.speedup_pct ~base:btotal ~exp:etotal in
    let ppf = text_ppf json in
    Format.fprintf ppf "%s, %d-wide, %s, input%s %s@." spec.Spec.name width
      (Kind.name predictor)
      (if List.length inputs > 1 then "s" else "")
      (String.concat "," (List.map string_of_int inputs));
    Format.fprintf ppf "speedup: %+.2f%%@.@." speedup;
    let pct total n =
      if total > 0 then Text.f1 (100.0 *. Float.of_int n /. Float.of_int total)
      else "-"
    in
    let stack_rows =
      List.init Acct.n_components (fun c ->
          let bn = base.Acct.components.(c)
          and en = exp.Acct.components.(c) in
          [ Acct.component_names.(c);
            string_of_int bn; pct btotal bn;
            string_of_int en; pct etotal en;
            Printf.sprintf "%+d" (en - bn)
          ])
      @ [ [ "total"; string_of_int btotal; "100.0"; string_of_int etotal;
            "100.0"; Printf.sprintf "%+d" (etotal - btotal) ]
        ]
    in
    Format.fprintf ppf "%s@."
      (Text.render
         ~headers:[ "component"; "baseline"; "%"; "vanguard"; "%"; "delta" ]
         stack_rows);
    (* Per-site join: a baseline branch and the resolve that replaced it
       share a site id, so rows line up across the transform. *)
    let base_sites = Acct.by_site base and exp_sites = Acct.by_site exp in
    let find sites site =
      List.find_opt (fun sa -> sa.Acct.sa_site = site) sites
    in
    let sites =
      List.sort_uniq compare
        (List.map (fun sa -> sa.Acct.sa_site) (base_sites @ exp_sites))
    in
    let recovery = function Some sa -> sa.Acct.sa_recovery | None -> 0 in
    (* most recovery cycles over both sides first *)
    let ranked =
      List.stable_sort
        (fun (_, b1, e1) (_, b2, e2) ->
          compare (recovery b2 + recovery e2) (recovery b1 + recovery e1))
        (List.map
           (fun site -> (site, find base_sites site, find exp_sites site))
           sites)
    in
    let shown =
      List.filteri (fun i _ -> i < top)
        (List.filter
           (fun (_, b_, e_) -> recovery b_ > 0 || recovery e_ > 0)
           ranked)
    in
    let misp_rate = function
      | Some sa when sa.Acct.sa_execs > 0 ->
        Text.f3
          (Float.of_int sa.Acct.sa_mispredicts /. Float.of_int sa.Acct.sa_execs)
      | _ -> "-"
    in
    let execs = function Some sa -> sa.Acct.sa_execs | None -> 0 in
    if shown <> [] then
      Format.fprintf ppf
        "top branch sites by recovery cycles (baseline vs vanguard):@.%s@."
        (Text.render
           ~headers:
             [ "site"; "b.execs"; "b.misp"; "b.recovery"; "v.execs";
               "v.misp"; "v.recovery"; "d.recovery"
             ]
           (List.map
              (fun (site, b_, e_) ->
                [ string_of_int site;
                  string_of_int (execs b_); misp_rate b_;
                  string_of_int (recovery b_);
                  string_of_int (execs e_); misp_rate e_;
                  string_of_int (recovery e_);
                  Printf.sprintf "%+d" (recovery e_ - recovery b_)
                ])
              shown));
    (match json with
    | None -> ()
    | Some path ->
      let open Json in
      let site_json (site, b_, e_) =
        let side tag = function
          | None -> []
          | Some sa ->
            [ (tag ^ "_execs", Int sa.Acct.sa_execs);
              (tag ^ "_mispredicts", Int sa.Acct.sa_mispredicts);
              (tag ^ "_recovery_cycles", Int sa.Acct.sa_recovery)
            ]
        in
        Obj
          (("site", Int site)
          :: (side "baseline" b_ @ side "vanguard" e_
             @ [ ("delta_recovery_cycles", Int (recovery e_ - recovery b_)) ]
             ))
      in
      write_report path
        (bench_fields spec ~width predictor
           ("inputs", List (List.map (fun i -> Int i) inputs))
        @ [ ("speedup_pct", float speedup);
            ("baseline", Acct.to_json base);
            ("vanguard", Acct.to_json exp);
            ("sites", List (List.map site_json ranked));
            ( "summary_stats",
              summary_stats (Gen.generate ~input:(List.hd inputs) spec) )
          ]));
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Cycle-accounting report: baseline-vs-decomposed CPI stacks and \
          per-branch-site attribution of recovery cycles.")
    Term.(
      const run $ bench_arg $ width_arg $ input_arg
      $ all_arg "Aggregate over all REF inputs (overrides --input)."
      $ predictor_arg
      $ top_arg "Branch sites to show in the attribution table."
      $ json_arg)

(* -------------------------------------------------------------- profile *)

let profile_cmd =
  let run spec predictor =
    let b = Sim.prepare ~predictor (Sim.the ()) spec in
    Format.printf "%a@." Bv_profile.Profile.pp (Runner.profile b);
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a benchmark's TRAIN input: per-site bias and \
             predictability.")
    Term.(const run $ bench_arg $ predictor_arg)

(* ------------------------------------------------------------ transform *)

let transform_cmd =
  let run spec disasm =
    let b = Sim.bench (Sim.the ()) spec in
    let sel = Runner.selection b in
    let tr = Runner.transform b in
    Format.printf
      "%s: %d/%d forward branches selected (PBC %.1f%%), %d skipped@."
      spec.Spec.name
      (List.length sel.Vanguard.Select.candidates)
      sel.Vanguard.Select.static_forward_branches
      (Vanguard.Select.pbc sel)
      (List.length tr.Vanguard.Transform.skipped);
    List.iter
      (fun (id, why) -> Format.printf "  skipped site %d: %s@." id why)
      tr.Vanguard.Transform.skipped;
    List.iter
      (fun r ->
        Format.printf
          "  site %3d: slice %d, hoisted %d/%d (nt/t), PHI %.0f%%@."
          r.Vanguard.Transform.site r.Vanguard.Transform.slice_size
          r.Vanguard.Transform.hoisted_not_taken
          r.Vanguard.Transform.hoisted_taken
          (Vanguard.Transform.phi r))
      tr.Vanguard.Transform.reports;
    Format.printf "static instructions: %d -> %d (PISCS %.1f%%)@."
      tr.Vanguard.Transform.static_instrs_before
      tr.Vanguard.Transform.static_instrs_after (Runner.piscs b);
    if disasm then
      Format.printf "@.%a@." Layout.pp_disassembly
        (Runner.experimental_program b ~input:1);
    0
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Show candidate selection and transformation details.")
    Term.(
      const run $ bench_arg
      $ flag_arg [ "disasm" ] "Print the transformed code.")

(* ----------------------------------------------------------- experiment *)

let experiment_cmd =
  let run ids json jobs =
    Option.iter (Sim.set_jobs (Sim.the ())) jobs;
    let ppf = text_ppf json in
    let ids = if ids = [ "all" ] then List.map (fun (i, _, _) -> i)
                  Experiments.all
              else ids in
    (* Every id is checked before the first experiment runs. *)
    match List.filter (fun id -> Option.is_none (Experiments.find id)) ids with
    | _ :: _ as unknown ->
      Printf.eprintf "unknown experiment %s (try `vanguard_cli list`)\n"
        (String.concat ", " unknown);
      1
    | [] ->
      ignore (Experiments.drain_tables ());
      ignore (Experiments.drain_csv_failures ());
      let entries =
        List.map
          (fun id ->
            let t0 = Unix.gettimeofday () in
            Option.get (Experiments.find id) ppf;
            let seconds = Unix.gettimeofday () -. t0 in
            Json.Obj
              [ ("id", Json.String id);
                ("seconds", Json.float seconds);
                ( "tables",
                  Json.List
                    (List.map Experiments.table_to_json
                       (Experiments.drain_tables ())) )
              ])
          ids
      in
      Option.iter
        (fun path ->
          write_report path
            [ ("scale", Json.float (Runner.scale ()));
              ("experiments", Json.List entries)
            ])
        json;
      (* every table and the report are out; a stale results/*.csv is
         still a failure *)
      if Experiments.drain_csv_failures () = [] then 0 else 1
  in
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let jobs_arg =
    Arg.(value & opt (some positive) None
           & info [ "j"; "jobs" ] ~docv:"N"
               ~doc:"Worker processes for row-level parallelism (default \
                     \\$(b,BV_JOBS) or 1). Output is byte-identical to a \
                     serial run.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures ('all' for every \
             one).")
    Term.(const run $ ids_arg $ json_arg $ jobs_arg)

(* ------------------------------------------------------------------ dot *)

let dot_cmd =
  let run spec transformed callgraph =
    let program =
      if transformed then transformed_program spec
      else Gen.generate ~input:1 spec
    in
    if callgraph then Format.printf "%a@." Bv_ir.Dot.callgraph program
    else Format.printf "%a@." (Bv_ir.Dot.program ~bodies:false) program;
    0
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export a benchmark's CFG as Graphviz (pipe into `dot -Tsvg`).")
    Term.(
      const run $ bench_arg
      $ transformed_arg "Export the decomposed-branch version."
      $ flag_arg [ "callgraph" ]
          "Export the SCC-condensed call graph instead of the CFG \
           (recursive components highlighted).")

(* ---------------------------------------------------------------- trace *)

let trace_cmd =
  let run spec width rows transformed =
    let b = Sim.bench (Sim.the ()) spec in
    let image =
      if transformed then Runner.experimental_program b ~input:1
      else Runner.baseline_program b ~input:1
    in
    let config = Config.make ~width () in
    let trace, result = Trace.collect ~max_rows:rows ~config image in
    Format.printf "%a@." Trace.pp trace;
    Format.printf "@.%a@." Stats.pp result.Machine.stats;
    0
  in
  let rows_arg =
    Arg.(value & opt positive 60 & info [ "n"; "rows" ]
           ~doc:"Instructions to trace.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Per-instruction pipeline trace (fetch/issue/complete cycles).")
    Term.(
      const run $ bench_arg $ width_arg $ rows_arg
      $ transformed_arg "Trace the decomposed-branch version.")

(* ----------------------------------------------------------------- lint *)

let lint_cmd =
  let run files specs suites dbb_entries interproc werror json =
    let failed = ref false in
    let loaded = load_files failed files in
    let bench_targets =
      List.concat_map
        (fun spec ->
          [ (spec.Spec.name ^ ":baseline", Gen.generate ~input:1 spec);
            (spec.Spec.name ^ ":transformed", transformed_program spec)
          ])
        specs
    in
    let suite_targets =
      if not suites then []
      else
        List.filter_map
          (fun suite ->
            match Suites.of_suite suite with
            | [] -> None
            | spec :: _ ->
              Some
                ( Printf.sprintf "%s:%s:transformed" (Spec.suite_name suite)
                    spec.Spec.name,
                  transformed_program spec ))
          [ Spec.Int_2006; Spec.Fp_2006; Spec.Int_2000; Spec.Fp_2000 ]
    in
    let targets = loaded @ bench_targets @ suite_targets in
    if targets = [] then
      no_targets failed
        "nothing to lint: pass FILE arguments, -b BENCH, or --suites";
    let results =
      List.map
        (fun ((_, prog) as target) ->
          ( target,
            Bv_analysis.Speculation.verify ~dbb_entries
              ~scratch:Vanguard.Transform.default_temp_pool
              ?summaries:(summaries_if interproc prog) prog ))
        targets
    in
    let ((errors, warnings, infos) as tally) = tallies results in
    (match json with
    | Some path ->
      write_report path
        [ ("dbb_entries", Json.Int dbb_entries);
          ("interproc", Json.Bool interproc);
          ( "targets",
            Json.List
              (List.map
                 (fun ((name, prog), diags) ->
                   target_json name
                     [ ("summary_stats", summary_stats prog) ]
                     diags)
                 results) )
        ]
    | None ->
      List.iter
        (fun ((name, _), diags) ->
          if diags = [] then Format.printf "%s: clean@." name
          else print_diagnostics name diags)
        results;
      if results <> [] then
        Format.printf
          "%d target(s): %d error(s), %d warning(s), %d info(s)@."
          (List.length results) errors warnings infos);
    diagnostics_status ~failed:!failed ~werror tally
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify predict/resolve speculation safety; exits \
          non-zero on any error-severity diagnostic.")
    Term.(
      const run
      $ files_arg "Hidden-ISA source files (see `vanguard_cli assemble`)."
      $ benches_arg
          "Lint a benchmark's baseline and decomposed-branch programs \
           (repeatable; see `vanguard_cli list`)."
      $ suites_arg
          "Lint the transformed program of one workload per benchmark \
           suite."
      $ dbb_arg "Decoupled-branch-buffer capacity for the occupancy check."
      $ interproc_arg $ werror_arg $ json_arg)

(* ---------------------------------------------------------------- prove *)

let prove_cmd =
  let module Equiv = Bv_analysis.Equiv in
  let scratch = Vanguard.Transform.default_temp_pool in
  let run files specs fuzz max_paths interproc werror json =
    let failed = ref false in
    (* no reference program for a standalone file: check the internal
       consistency of its predict/resolve regions *)
    let file_results =
      List.map
        (fun (path, prog) -> (path, Equiv.verify_self ~scratch ~max_paths prog))
        (load_files failed files)
    in
    (* Bench proofs and fuzz seeds fan out across the session's workers;
       the verdict diagnostics are plain data. *)
    let bench_results =
      Sim.map (Sim.the ())
        (fun spec ->
          (* the harness transforms the TRAIN program of the bench
             record's (BV_SCALE-scaled) spec; regenerate it from that
             spec as the reference and validate the transform output
             against it *)
          let b = Sim.bench (Sim.the ()) spec in
          let original = Gen.generate ~input:0 (Runner.spec b) in
          let transformed =
            if interproc then
              (* re-transform with summaries: newly eligible cross-call
                 sites must prove out too *)
              let summaries = Bv_analysis.Summary.compute original in
              (Vanguard.Transform.apply ~summaries ~exit_live:Gen.live_at_exit
                 ~candidates:(Runner.selection b).Vanguard.Select.candidates
                 original)
                .Vanguard.Transform.program
            else (Runner.transform b).Vanguard.Transform.program
          in
          [ ( spec.Spec.name ^ ":transform",
              Equiv.verify ~scratch ~exit_live:Gen.live_at_exit ~max_paths
                ~original transformed );
            ( spec.Spec.name ^ ":self",
              Equiv.verify_self ~scratch ~exit_live:Gen.live_at_exit
                ~max_paths transformed )
          ])
        specs
    in
    let fuzz_results =
      fuzz_corpus fuzz (fun _ prog profile ->
          let candidates =
            (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0
               ~profile prog)
              .Vanguard.Select.candidates
          in
          let result =
            Vanguard.Transform.apply
              ?summaries:(summaries_if interproc prog)
              ~candidates prog
          in
          Equiv.verify ~scratch ~max_paths ~original:prog
            result.Vanguard.Transform.program)
    in
    let results =
      file_results @ List.concat bench_results
      @ List.mapi
          (fun seed diags -> (Printf.sprintf "fuzz:%d" seed, diags))
          fuzz_results
    in
    if results = [] then
      no_targets failed
        "nothing to prove: pass FILE arguments, -b BENCH, or --fuzz N";
    let ((errors, warnings, infos) as tally) = tallies results in
    let flagged =
      List.filter
        (fun (_, ds) ->
          List.exists (fun d -> d.Diagnostic.severity <> Diagnostic.Info) ds)
        results
    in
    let clean = List.length results - List.length flagged in
    (match json with
    | Some path ->
      write_report path
        [ ("interproc", Json.Bool interproc);
          bench_summary_stats specs;
          ("targets_checked", Json.Int (List.length results));
          ("proven_clean", Json.Int clean);
          ("errors", Json.Int errors);
          ("warnings", Json.Int warnings);
          ("infos", Json.Int infos);
          ( "targets",
            Json.List
              (List.map (fun (name, ds) -> target_json name [] ds) flagged) )
        ]
    | None ->
      List.iter (fun (name, diags) -> print_diagnostics name diags) flagged;
      if results <> [] then
        Format.printf
          "%d target(s) checked, %d proven clean: %d error(s), %d \
           warning(s), %d info(s)@."
          (List.length results) clean errors warnings infos);
    diagnostics_status ~failed:!failed ~werror tally
  in
  let max_paths_arg =
    Arg.(
      value & opt positive 4096
      & info [ "max-paths" ] ~docv:"N"
          ~doc:
            "Symbolic-path budget per cutpoint region; overflow is \
             reported as an error, never an accept.")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Translation validation: symbolically prove decomposed-branch \
          programs equivalent to their originals; exits non-zero on any \
          counterexample.")
    Term.(
      const run
      $ files_arg
          "Hidden-ISA source files; with no reference program available \
           they get the self-consistency check only."
      $ benches_arg
          "Prove the benchmark's decomposed-branch program equivalent to \
           its baseline (repeatable; see `vanguard_cli list`)."
      $ fuzz_arg
          "Generate N seeded fuzz programs, transform each, and prove \
           every transform output equivalent to its original."
      $ max_paths_arg $ interproc_arg $ werror_arg $ json_arg)

(* --------------------------------------------------------------- advise *)

(* Interprocedural advisory gains: sites the summary-off advisor rejected
   that the summary-on advisor recommends with positive savings,
   restricted to call-shadowed blocks — their eligibility genuinely
   depended on call-aware facts, the paper's cross-call population. Each
   gained site is then transformed alone under [~summaries ~prove] so the
   claim "now eligible" is backed by a translation-validation proof.
   Returns marshal-safe plain tuples: (site, proc, block, reason the
   summary-off advisor gave, cycles saved, proved). *)
let interproc_gains ?max_hoist ?exit_live ~config ~profile program =
  let module Advisor = Bv_analysis.Advisor in
  let module Costmodel = Bv_analysis.Costmodel in
  let summaries = Bv_analysis.Summary.compute program in
  let advise summaries =
    Advisor.advise ~config ~profile
      (Bv_analysis.Costmodel.analyze ?max_hoist ?exit_live ?summaries
         program)
  in
  let off = advise None and on = advise (Some summaries) in
  let rejected_off =
    List.filter_map
      (fun r ->
        Option.map
          (fun reason -> (r.Advisor.cost.Costmodel.site, reason))
          r.Advisor.rejected)
      off.Advisor.sites
  in
  let gained =
    List.filter
      (fun r ->
        r.Advisor.rejected = None
        && r.Advisor.cycles_saved > 0.0
        && List.mem_assoc r.Advisor.cost.Costmodel.site rejected_off
        && Bv_ir.Callgraph.call_shadowed
             (Program.find_proc program r.Advisor.cost.Costmodel.proc)
             r.Advisor.cost.Costmodel.block)
      on.Advisor.sites
  in
  let proved_sites =
    match gained with
    | [] -> []
    | gained -> (
      let candidates =
        List.map
          (fun r ->
            { Vanguard.Select.proc = r.Advisor.cost.Costmodel.proc;
              block = r.Advisor.cost.Costmodel.block;
              site = r.Advisor.cost.Costmodel.site;
              bias = r.Advisor.bias;
              predictability = r.Advisor.predictability;
              executed = r.Advisor.execs
            })
          gained
      in
      match
        Vanguard.Transform.apply ?max_hoist ?exit_live ~summaries
          ~prove:true ~candidates program
      with
      | result ->
        List.map
          (fun rep -> rep.Vanguard.Transform.site)
          result.Vanguard.Transform.reports
      | exception Invalid_argument _ -> [])
  in
  List.map
    (fun r ->
      let site = r.Advisor.cost.Costmodel.site in
      ( site,
        r.Advisor.cost.Costmodel.proc,
        r.Advisor.cost.Costmodel.block,
        List.assoc site rejected_off,
        r.Advisor.cycles_saved,
        List.mem site proved_sites ))
    gained

let gain_json (site, proc, blockl, reason, saved, proved) =
  let open Json in
  Obj
    [ ("site", Int site);
      ("proc", String proc);
      ("block", String blockl);
      ("kind", String "cross_call");
      ("rejected_before", String reason);
      ("cycles_saved", float saved);
      ("proved", Bool proved)
    ]

let advise_cmd =
  let module Advisor = Bv_analysis.Advisor in
  let module Costmodel = Bv_analysis.Costmodel in
  (* Correlation gating needs enough joined sites to mean anything. *)
  let min_joined = 5 in
  let run specs suites validate width all predictor top corr_floor
      warn_only dbb fuzz interproc werror json =
    let failed = ref false in
    let warned = ref false in
    let specs =
      List.sort_uniq
        (fun a b -> compare a.Spec.name b.Spec.name)
        (specs @ if suites then Suites.all else [])
    in
    if specs = [] && fuzz = None then
      no_targets failed
        "nothing to advise: pass -b BENCH, --suites, or --fuzz N";
    let config = { Advisor.default_config with Advisor.dbb_entries = dbb } in
    let sim = Sim.the () in
    let inputs = if all then Runner.input_indices () else [ 1 ] in
    (* Prepare, advise and (optionally) validate, one target per item,
       fanned out across the session's workers. Everything a worker
       returns is plain marshal-safe data. *)
    let results =
      Sim.map sim
        (fun spec ->
          let b = Sim.prepare ~predictor sim spec in
          let checked =
            if validate then
              Some
                (Sim.advise_validate ~predictor ~config ~interproc ~inputs sim
                   b ~width)
            else None
          in
          let advice =
            match checked with
            | Some c -> c.Sim.ac_advice
            | None -> Runner.advise ~config ~interproc b
          in
          let gains =
            if interproc then
              interproc_gains ~exit_live:Gen.live_at_exit ~config
                ~profile:(Runner.profile b)
                (Gen.generate ~input:0 spec)
            else []
          in
          (spec.Spec.name, advice, checked, gains))
        specs
    in
    (* Fuzz targets: the seeded corpus is where cross-call gains actually
       live — the benchmark generators only call from main's latch loop,
       which the advisor rejects as backward either way. The advisor runs
       with selection-style gating (no heat or margin requirement, no
       growth charge) so eligibility, not heat, decides. *)
    let fuzz_config =
      { config with
        Advisor.min_executed = 0;
        threshold = -2.0;
        growth_penalty = 0.0
      }
    in
    let fuzz_results =
      fuzz_corpus fuzz (fun seed prog profile ->
          let advice =
            Advisor.advise ~config:fuzz_config ~profile
              (Costmodel.analyze ?summaries:(summaries_if interproc prog) prog)
          in
          let gains =
            if interproc then
              interproc_gains ~config:fuzz_config ~profile prog
            else []
          in
          (Printf.sprintf "fuzz:%d" seed, advice, None, gains))
    in
    let results = results @ fuzz_results in
    let ppf = text_ppf json in
    let gate severity fmt =
      Printf.ksprintf
        (fun msg ->
          (match severity with
          | `Error -> failed := true
          | `Warning -> warned := true);
          Format.fprintf ppf "advise %s: %s@."
            (match severity with `Error -> "error" | `Warning -> "warning")
            msg)
        fmt
    in
    List.iter
      (fun (name, advice, checked, gains) ->
        let n_sites = List.length advice.Advisor.sites in
        let n_rec = List.length advice.Advisor.recommended in
        Format.fprintf ppf "%s: %d branch site(s), %d recommended@." name
          n_sites n_rec;
        List.iter
          (fun (site, proc, blockl, reason, saved, proved) ->
            Format.fprintf ppf
              "%s: gain: site %d (%s/%s) was rejected (%s), now saves %.1f \
               cycle(s), %s@."
              name site proc blockl reason saved
              (if proved then "equivalence proved"
               else "equivalence NOT proved"))
          gains;
        let shown = List.filteri (fun i _ -> i < top) advice.Advisor.sites in
        if shown <> [] then
          Format.fprintf ppf "%s@."
            (Text.render
               ~headers:
                 [ "site"; "class"; "execs"; "pred"; "overlap"; "waste";
                   "saved"; "verdict"
                 ]
               (List.map
                  (fun r ->
                    [ string_of_int r.Advisor.cost.Costmodel.site;
                      Costmodel.pred_class_name
                        r.Advisor.cost.Costmodel.pred_class;
                      string_of_int r.Advisor.execs;
                      Text.f3 r.Advisor.predictability;
                      string_of_int r.Advisor.overlap;
                      string_of_int r.Advisor.waste;
                      Text.f1 r.Advisor.cycles_saved;
                      (match r.Advisor.rejected with
                      | None -> "recommend"
                      | Some reason -> reason)
                    ])
                  shown));
        match checked with
        | None -> ()
        | Some c ->
          let v = c.Sim.ac_validation in
          let joined = List.length v.Advisor.joined in
          Format.fprintf ppf
            "%s: validation over %d input(s): %d site(s) joined, peak DBB \
             occupancy %d@."
            name c.Sim.ac_inputs joined c.Sim.ac_max_outstanding;
          if Float.is_nan v.Advisor.spearman then
            Format.fprintf ppf
              "%s: too few joined sites for a rank correlation@." name
          else begin
            Format.fprintf ppf "%s: spearman %.3f@." name v.Advisor.spearman;
            if joined >= min_joined && v.Advisor.spearman < corr_floor then
              gate
                (if warn_only then `Warning else `Error)
                "%s: rank correlation %.3f below floor %.2f over %d joined \
                 site(s)"
                name v.Advisor.spearman corr_floor joined
          end;
          List.iter
            (fun (r, m, d) ->
              gate `Warning
                "%s: site %d static/measured rank divergence %d (saved %.1f \
                 vs recovery %.0f)"
                name r.Advisor.cost.Costmodel.site d r.Advisor.cycles_saved m)
            v.Advisor.outliers)
      results;
    (match json with
    | None -> ()
    | Some path ->
      let open Json in
      let all_gains = List.concat_map (fun (_, _, _, g) -> g) results in
      let proved = List.filter (fun (_, _, _, _, _, p) -> p) all_gains in
      write_report path
        [ ("width", Int width);
          ("predictor", String (Kind.name predictor));
          ("dbb_entries", Int dbb);
          ("corr_floor", float corr_floor);
          ("interproc", Bool interproc);
          bench_summary_stats specs;
          ("gains_total", Int (List.length all_gains));
          ("gains_proved", Int (List.length proved));
          ("inputs", List (List.map (fun i -> Int i) inputs));
          ("scale", float (Runner.scale ()));
          ( "targets",
            List
              (List.map
                 (fun (name, advice, checked, gains) ->
                   Obj
                     ([ ("target", String name);
                        ("gains", List (List.map gain_json gains))
                      ]
                     @ obj_fields (Advisor.to_json advice)
                     @
                     match checked with
                     | None -> []
                     | Some c ->
                       [ ( "validation",
                           Advisor.validation_to_json c.Sim.ac_validation );
                         ("max_outstanding", Int c.Sim.ac_max_outstanding)
                       ]))
                 results) )
        ]);
    if !failed || (werror && !warned) then 1 else 0
  in
  let validate_arg =
    flag_arg [ "validate" ]
      "Join the static cycles-saved ranking against measured per-site \
       recovery cycles from an accounted baseline simulation, and report \
       the Spearman rank correlation."
  in
  let corr_floor_arg =
    Arg.(
      value & opt finite 0.0
      & info [ "corr-floor" ] ~docv:"RHO"
          ~doc:
            "Fail validation when the rank correlation falls below $(docv) \
             (with at least 5 joined sites). $(docv) must be finite; it may \
             be negative, as the correlation lies in [-1, 1].")
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Static profitability analysis: rank every branch site by \
          estimated decomposition savings; optionally cross-validate the \
          ranking against measured cycle attribution.")
    Term.(
      const run
      $ benches_arg
          "Advise on a benchmark (repeatable; see `vanguard_cli list`)."
      $ suites_arg "Advise on every benchmark of every suite."
      $ validate_arg $ width_arg
      $ all_arg "Validate against all REF inputs, merged (default: input 1)."
      $ predictor_arg
      $ top_arg "Sites to show per target."
      $ corr_floor_arg
      $ flag_arg [ "warn-only" ]
          "Downgrade a correlation-floor failure to a warning."
      $ dbb_arg "Decoupled-branch-buffer capacity for the pressure gate."
      $ fuzz_arg
          "Also advise on N seeded fuzz programs (selection-style gating: \
           no heat or margin requirement). With --interproc this is where \
           cross-call gains are expected."
      $ interproc_arg $ werror_arg $ json_arg)

(* ------------------------------------------------------------ summaries *)

let summaries_cmd =
  let run files specs transformed json =
    let failed = ref false in
    let loaded = load_files failed files in
    let targets =
      loaded
      @ List.map
          (fun spec ->
            if transformed then
              (spec.Spec.name ^ ":transformed", transformed_program spec)
            else (spec.Spec.name ^ ":baseline", Gen.generate ~input:1 spec))
          specs
    in
    if targets = [] then
      no_targets failed "nothing to summarize: pass FILE arguments or -b BENCH";
    let results =
      List.map
        (fun (name, prog) -> (name, Bv_analysis.Summary.compute prog))
        targets
    in
    (match json with
    | Some path ->
      write_report path
        [ ( "targets",
            Json.List
              (List.map
                 (fun (name, env) ->
                   Json.Obj
                     [ ("target", Json.String name);
                       ("summary_stats", Bv_analysis.Summary.stats_json env);
                       ("summaries", Bv_analysis.Summary.to_json env)
                     ])
                 results) )
        ]
    | None ->
      List.iter
        (fun (name, env) ->
          let procs = Bv_analysis.Summary.procs env in
          Format.printf "%s: %d procedure(s)@." name (List.length procs);
          List.iter
            (fun s -> Format.printf "  %a@." Bv_analysis.Summary.pp s)
            procs)
        results);
    if !failed then 1 else 0
  in
  Cmd.v
    (Cmd.info "summaries"
       ~doc:
         "Compute and print interprocedural per-procedure summaries \
          (register mod/use sets, memory footprints, purity).")
    Term.(
      const run
      $ files_arg "Hidden-ISA source files (see `vanguard_cli assemble`)."
      $ benches_arg
          "Summarize a benchmark's baseline program (repeatable; see \
           `vanguard_cli list`)."
      $ transformed_arg "Summarize the decomposed-branch version instead."
      $ json_arg)

(* ------------------------------------------------------------- assemble *)

let assemble_cmd =
  let run path simulate =
    match read_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok prog ->
      let image = Layout.program prog in
      Format.printf "%a@." Layout.pp_disassembly image;
      if simulate then begin
        let st = Bv_exec.Interp.run image in
        Format.printf "interpreter: %d instructions, halted=%b@."
          st.Bv_exec.Interp.instr_count st.Bv_exec.Interp.halted;
        let res = Machine.run ~config:Config.four_wide image in
        Format.printf "%a@." Stats.pp res.Machine.stats
      end;
      0
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "assemble"
       ~doc:"Assemble a hidden-ISA source file; print its layout.")
    Term.(
      const run $ path_arg
      $ flag_arg [ "run" ] "Also interpret and simulate.")

(* ------------------------------------------------------------------ dag *)

let dag_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Cache directory to operate on (default: the session's store, \
           \\$(b,BV_CACHE) or .bv-cache).")

(* [f] on the store a dag subcommand operates on: --dir, else the
   session's; with neither, an error. *)
let with_dag_dir dir f =
  match if dir = None then Sim.cache_dir (Sim.the ()) else dir with
  | Some dir -> f dir
  | None ->
    prerr_endline "error: cache disabled (BV_CACHE=none); pass --dir";
    1

let short_key k = if String.length k > 12 then String.sub k 0 12 else k

let dag_status_cmd =
  let run dir json =
    with_dag_dir dir @@ fun dir ->
    (match json with
    | Some path -> write_json path (Dag.status_json dir)
    | None ->
      let es = Dag.entries dir in
      let bytes = List.fold_left (fun a e -> a + e.Dag.e_bytes) 0 es in
      Printf.printf "cache %s: %d node(s), %d bytes, code format %d\n" dir
        (List.length es) bytes Dag.code_format;
      let kinds =
        List.sort_uniq compare (List.map (fun e -> e.Dag.e_kind) es)
      in
      List.iter
        (fun kind ->
          let of_kind = List.filter (fun e -> e.Dag.e_kind = kind) es in
          Printf.printf "  %-12s %5d node(s) %12d bytes\n" kind
            (List.length of_kind)
            (List.fold_left (fun a e -> a + e.Dag.e_bytes) 0 of_kind))
        kinds;
      List.iter
        (fun c ->
          Printf.printf "  claim %s pid %d@%s age %.0fs%s\n"
            (short_key c.Dag.c_key) c.Dag.c_pid c.Dag.c_host c.Dag.c_age
            (if c.Dag.c_stale then " (stale)" else ""))
        (Dag.claims dir));
    0
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Summarize the DAG store: nodes per kind, bytes, live claims.")
    Term.(const run $ dag_dir_arg $ json_arg)

let dag_gc_cmd =
  let run dir max_age_days max_size_mb dry_run json =
    with_dag_dir dir @@ fun dir ->
    let report =
      Dag.gc
        ?max_age:(Option.map (fun d -> d *. 86400.0) max_age_days)
        ?max_bytes:
          (Option.map
             (* past 1e18 bytes the int would overflow; no store is that big *)
             (fun mb -> Float.to_int (Float.min (mb *. 1024.0 *. 1024.0) 1e18))
             max_size_mb)
        ~dry_run dir
    in
    (match json with
    | Some path -> write_json path (Dag.gc_report_to_json report)
    | None ->
      let verb = if dry_run then "would remove" else "removed" in
      Printf.printf
        "cache %s: %d node(s), %d bytes; %s %d node(s), %d bytes%s\n" dir
        report.Dag.gcr_examined report.Dag.gcr_bytes verb
        (List.length report.Dag.gcr_removed)
        report.Dag.gcr_removed_bytes
        (if report.Dag.gcr_claims_broken = 0 then ""
         else
           Printf.sprintf "; %s %d stale claim(s)"
             (if dry_run then "would break" else "broke")
             report.Dag.gcr_claims_broken);
      List.iter
        (fun e ->
          Printf.printf "  %s %s %-10s %s (%d bytes)\n" verb
            (short_key e.Dag.e_key) e.Dag.e_kind e.Dag.e_label e.Dag.e_bytes)
        report.Dag.gcr_removed);
    0
  in
  let max_age_arg =
    Arg.(
      value
      & opt (some finite_non_negative) None
      & info [ "max-age-days" ] ~docv:"DAYS"
          ~doc:"Prune nodes whose last use is older than $(docv).")
  in
  let max_size_arg =
    Arg.(
      value
      & opt (some finite_non_negative) None
      & info [ "max-size-mb" ] ~docv:"MB"
          ~doc:
            "After age pruning, evict least-recently-used nodes until the \
             store fits in $(docv).")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Prune the DAG store by age and size (least-recently-used first); \
          always sweeps stale claims.")
    Term.(
      const run $ dag_dir_arg $ max_age_arg $ max_size_arg
      $ flag_arg [ "dry-run" ] "Report what would be pruned; touch nothing."
      $ json_arg)

let dag_explain_cmd =
  let run dir key json =
    with_dag_dir dir @@ fun dir ->
    match Dag.explain dir key with
    | Error e ->
      prerr_endline ("error: " ^ e);
      1
    | Ok x ->
      (match json with
      | Some path -> write_json path (Dag.explanation_to_json x)
      | None ->
        Printf.printf "node %s\n" x.Dag.x_key;
        Printf.printf "  kind %s, label %s\n" x.Dag.x_kind x.Dag.x_label;
        Printf.printf "  hash inputs: format %d, ocaml %s, inputs %s\n"
          x.Dag.x_format x.Dag.x_ocaml x.Dag.x_inputs;
        Printf.printf "  created %s by pid %d in %.3fs\n" x.Dag.x_created_at
          x.Dag.x_pid x.Dag.x_compute_seconds;
        Printf.printf "  %d bytes, last used %.0fs ago\n" x.Dag.x_bytes
          x.Dag.x_age;
        if x.Dag.x_events <> [] then begin
          Printf.printf "  provenance:\n";
          List.iter (fun e -> Printf.printf "    %s\n" e) x.Dag.x_events
        end);
      0
  in
  let key_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KEY" ~doc:"Node key (a unique hex prefix suffices).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show one stored node's hash inputs and hit/miss provenance.")
    Term.(const run $ dag_dir_arg $ key_arg $ json_arg)

let dag_cmd =
  Cmd.group
    (Cmd.info "dag"
       ~doc:
         "Inspect and maintain the memoized experiment DAG store that every \
          run path persists into (BV_CACHE).")
    [ dag_status_cmd; dag_gc_cmd; dag_explain_cmd ]

(* --------------------------------------------------------------- disasm *)

let disasm_cmd =
  let run spec =
    Format.printf "%a@." Layout.pp_disassembly
      (Layout.program (Gen.generate ~input:1 spec));
    0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a benchmark's baseline code.")
    Term.(const run $ bench_arg)

let main =
  let doc =
    "Branch Vanguard: decomposed branch prediction/resolution (ISCA 2015) \
     reproduction."
  in
  Cmd.group (Cmd.info "vanguard_cli" ~doc)
    [ list_cmd; run_cmd; report_cmd; profile_cmd;
      transform_cmd; experiment_cmd; disasm_cmd; dot_cmd; lint_cmd;
      prove_cmd; advise_cmd; summaries_cmd; assemble_cmd; trace_cmd; dag_cmd
    ]

(* A malformed BV_SCALE, BV_JOBS or BV_DAG_WAIT stops every command
   before it does any work, with an error naming the variable. *)
let () =
  match (Runner.scale (), Pool.jobs_env (), Dag.wait_budget ()) with
  | exception Invalid_argument msg ->
    prerr_endline ("vanguard_cli: " ^ msg);
    exit Cmd.Exit.cli_error
  | _ -> exit (Cmd.eval' main)
