(* Command-line driver: run benchmarks, inspect profiles and
   transformations, and regenerate the paper's experiments. *)

open Bv_bpred
open Bv_harness
open Bv_ir
open Bv_pipeline
open Bv_workloads
open Cmdliner

let spec_of_name name =
  match Suites.find name with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %s (try `vanguard_cli list`)" name)

let bench_arg =
  let doc = "Benchmark name (see `vanguard_cli list`)." in
  Arg.(required & opt (some string) None & info [ "b"; "benchmark" ] ~doc)

let width_arg =
  let doc = "Machine width: 2, 4 or 8." in
  Arg.(value & opt int 4 & info [ "w"; "width" ] ~doc)

let input_arg =
  let doc = "REF input index (1-based; 0 is the TRAIN input)." in
  Arg.(value & opt int 1 & info [ "i"; "input" ] ~doc)

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

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let sample_interval_arg =
  let doc = "Interval-sampler window in cycles (for --json)." in
  Arg.(
    value
    & opt (some positive) None
    & info [ "sample-interval" ] ~doc ~docv:"CYCLES")

(* ------------------------------------------------------------- sampling *)

let sample_mode_arg =
  let doc =
    "SMARTS-style interval sampling: simulate short detailed windows, \
     functionally fast-forward between them (predictors and caches stay \
     warm), and report whole-run estimates with 95% confidence \
     intervals. Architectural results stay exact."
  in
  Arg.(value & flag & info [ "sample-mode" ] ~doc)

let sample_period_arg =
  let doc = "Sampling period in instructions (with --sample-mode)." in
  Arg.(
    value
    & opt positive Machine.default_sample_params.Machine.sp_period
    & info [ "sample-period" ] ~doc ~docv:"INSTRS")

let sample_detail_arg =
  let doc = "Detailed (measured) instructions per period." in
  Arg.(
    value
    & opt positive Machine.default_sample_params.Machine.sp_detail
    & info [ "sample-detail" ] ~doc ~docv:"INSTRS")

let sample_warmup_arg =
  let doc = "Detailed warmup instructions before each measured window." in
  Arg.(
    value
    & opt positive Machine.default_sample_params.Machine.sp_warmup
    & info [ "sample-warmup" ] ~doc ~docv:"INSTRS")

let sample_params_of ~period ~detail ~warmup =
  { Machine.sp_period = period; sp_detail = detail; sp_warmup = warmup }

let write_json path json =
  if path = "-" then Bv_obs.Json.to_channel ~indent:true stdout json
  else
    try
      Out_channel.with_open_text path (fun oc ->
          Bv_obs.Json.to_channel ~indent:true oc json)
    with Sys_error e ->
      prerr_endline ("error: cannot write " ^ e);
      exit 1

let obj_add json fields =
  match json with
  | Bv_obs.Json.Obj base -> Bv_obs.Json.Obj (base @ fields)
  | other -> other

(* Every --json emitter reports the run's DAG provenance: how many
   pipeline nodes were memo/store hits, computed here, or computed by a
   cooperating process. Read at report-construction time — i.e. after
   the command's work is done. *)
let dag_field () = ("dag", Sim.counters_json (Sim.the ()))

(* ------------------------------------------------------- interprocedural *)

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

(* Summaries are content-hash cached in the session's DAG store under
   the "summary" kind, keyed by the whole program: the summaries
   subcommand and the summary-stats field of the --json emitters all
   route through this node, so a re-run on an unchanged program is a
   warm hit. *)
let summary_node name prog =
  match
    Sim.dag_map (Sim.the ()) ~kind:"summary"
      ~label:(fun (n, _) -> n)
      (fun ((_ : string), prog) ->
        let env = Bv_analysis.Summary.compute prog in
        ( Bv_analysis.Summary.procs env,
          Bv_analysis.Summary.stats_json env,
          Bv_analysis.Summary.to_json env ))
      [ (name, prog) ]
  with
  | [ node ] -> node
  | _ -> assert false

let summary_stats_field name prog =
  let _, stats, _ = summary_node name prog in
  ("summary_stats", stats)

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

let run_cmd =
  let run name width input predictor json trace sample_interval sample_mode
      sample_period sample_detail sample_warmup =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec when sample_mode ->
      let b = Sim.prepare ~predictor (Sim.the ()) spec in
      let params =
        sample_params_of ~period:sample_period ~detail:sample_detail
          ~warmup:sample_warmup
      in
      let sp = Runner.simulate_sampled ~predictor ~params b ~input ~width in
      let ppf =
        if json = Some "-" then Format.err_formatter else Format.std_formatter
      in
      Format.fprintf ppf
        "%s, %d-wide, %s, input %d, sampled (period %d, detail %d, warmup \
         %d)@.@."
        name width (Kind.name predictor) input sample_period sample_detail
        sample_warmup;
      let show tag (s : Machine.sampled) =
        let e = s.Machine.sam_estimate in
        Format.fprintf ppf "--- %s ---@." tag;
        Format.fprintf ppf "windows %d, coverage %.2f%% of %d instructions@."
          (List.length e.Smarts.est_windows)
          e.Smarts.est_coverage_pct e.Smarts.est_total_instrs;
        Format.fprintf ppf
          "estimated cycles %.0f, CPI %.4f \xc2\xb1 %.4f (95%% CI, \xc2\xb1 \
           %.2f%%)@.@."
          e.Smarts.est_cycles e.Smarts.est_cpi.Smarts.mean
          (e.Smarts.est_cpi.Smarts.ci_high -. e.Smarts.est_cpi.Smarts.mean)
          e.Smarts.est_cpi.Smarts.rel_err_pct
      in
      show "baseline" sp.Runner.samp_base;
      show "decomposed-branch (vanguard)" sp.Runner.samp_exp;
      Format.fprintf ppf "estimated speedup: %+.2f%%@."
        sp.Runner.samp_speedup_pct;
      (match json with
      | None -> ()
      | Some path ->
        let side (s : Machine.sampled) =
          Machine.result_to_json ~sampled:s.Machine.sam_estimate
            s.Machine.sam_result
        in
        write_json path
          (Bv_obs.Json.Obj
             [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
               ("benchmark", Bv_obs.Json.String name);
               ("suite", Bv_obs.Json.String (Spec.suite_name spec.Spec.suite));
               ("width", Bv_obs.Json.Int width);
               ("predictor", Bv_obs.Json.String (Kind.name predictor));
               ("input", Bv_obs.Json.Int input);
               ("scale", Bv_obs.Json.float (Runner.scale ()));
               ( "sample_params",
                 Bv_obs.Json.Obj
                   [ ("period", Bv_obs.Json.Int sample_period);
                     ("detail", Bv_obs.Json.Int sample_detail);
                     ("warmup", Bv_obs.Json.Int sample_warmup)
                   ] );
               ("speedup_pct", Bv_obs.Json.float sp.Runner.samp_speedup_pct);
               ("baseline", side sp.Runner.samp_base);
               ("experimental", side sp.Runner.samp_exp);
               summary_stats_field name (Gen.generate ~input spec);
               dag_field ()
             ]));
      0
    | Ok spec ->
      let b = Sim.prepare ~predictor (Sim.the ()) spec in
      let telemetry = json <> None || trace <> None in
      let pair, inst, traces =
        if telemetry then begin
          (* The instrumented path re-simulates with samplers, cycle
             accounting and (when --trace) Perfetto collectors attached;
             pids 1/2 keep the two runs side by side in one trace
             document. *)
          let collector pid process_name =
            if trace = None then None
            else Some (Perfetto.create ~pid ~process_name ())
          in
          let base_tr = collector 1 "baseline" in
          let exp_tr = collector 2 "vanguard" in
          let tap = Option.map (fun t ev -> Perfetto.on_event t ev) in
          let inst =
            Runner.simulate_instrumented ~predictor ?sample_interval
              ?on_base_event:(tap base_tr) ?on_exp_event:(tap exp_tr) b
              ~input ~width
          in
          ( inst.Runner.pair,
            Some inst,
            (match (base_tr, exp_tr) with
            | Some bt, Some et -> Some (bt, et)
            | _ -> None) )
        end
        else (Runner.simulate ~predictor b ~input ~width, None, None)
      in
      (* With --json - the report owns stdout; the text goes to stderr. *)
      let ppf =
        if json = Some "-" then Format.err_formatter else Format.std_formatter
      in
      let show tag (r : Machine.result) =
        Format.fprintf ppf "--- %s ---@.%a@.L1-D miss rate %.3f@.@." tag
          Stats.pp r.Machine.stats
          (Bv_cache.Sa_cache.miss_rate (Bv_cache.Hierarchy.l1d r.Machine.hierarchy))
      in
      Format.fprintf ppf "%s, %d-wide, %s, input %d@.@." name width
        (Kind.name predictor) input;
      show "baseline" pair.Runner.base;
      show "decomposed-branch (vanguard)" pair.Runner.exp;
      Format.fprintf ppf "speedup: %+.2f%%@." pair.Runner.speedup_pct;
      (match (json, inst) with
      | Some path, Some i ->
        let side acct samples v =
          obj_add v
            [ ("samples", Sampler.to_json samples);
              ("cpi_stack", Acct.cpi_stack_json acct);
              ("top_branches", Acct.top_branches_json acct)
            ]
        in
        let report =
          match Runner.pair_to_json pair with
          | Bv_obs.Json.Obj fields ->
            Bv_obs.Json.Obj
              (List.map
                 (function
                   | "baseline", v ->
                     ( "baseline",
                       side i.Runner.base_acct i.Runner.base_samples v )
                   | "experimental", v ->
                     ( "experimental",
                       side i.Runner.exp_acct i.Runner.exp_samples v )
                   | field -> field)
                 fields)
          | other -> other
        in
        write_json path
          (obj_add
             (Bv_obs.Json.Obj
                [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
                  ("benchmark", Bv_obs.Json.String name);
                  ("suite", Bv_obs.Json.String (Spec.suite_name spec.Spec.suite));
                  ("width", Bv_obs.Json.Int width);
                  ("predictor", Bv_obs.Json.String (Kind.name predictor));
                  ("input", Bv_obs.Json.Int input);
                  ("scale", Bv_obs.Json.float (Runner.scale ()));
                  summary_stats_field name (Gen.generate ~input spec);
                  dag_field ()
                ])
             (match report with Bv_obs.Json.Obj f -> f | _ -> []))
      | _ -> ());
      (match (trace, traces, inst) with
      | Some path, Some (base_tr, exp_tr), Some i ->
        (* counter tracks ride the same pids as the span lanes, so the
           CPI stack overlays each run's instruction view *)
        write_json path
          (Bv_obs.Trace_event.document
             (Perfetto.events base_tr
             @ Perfetto.cpi_counter_events ~pid:1
                 (Sampler.windows i.Runner.base_samples)
             @ Perfetto.events exp_tr
             @ Perfetto.cpi_counter_events ~pid:2
                 (Sampler.windows i.Runner.exp_samples)))
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
      $ json_arg $ trace_arg $ sample_interval_arg $ sample_mode_arg
      $ sample_period_arg $ sample_detail_arg $ sample_warmup_arg)

(* ------------------------------------------------------ sample-validate *)

(* The accuracy gate behind --sample-mode: estimated CPI vs the exact
   full-run CPI on every benchmark, both sides of the transform. CI
   greps the ok:/error: lines. *)
let sample_validate_cmd =
  let run width predictor input max_cpi_err sample_period sample_detail
      sample_warmup json =
    let t = Sim.the () in
    let params =
      sample_params_of ~period:sample_period ~detail:sample_detail
        ~warmup:sample_warmup
    in
    let cpi (s : Stats.t) =
      Float.of_int s.Stats.cycles /. Float.of_int (max 1 (Stats.retired s))
    in
    let err est full =
      if full = 0.0 then 0.0 else 100.0 *. Float.abs (est -. full) /. full
    in
    let rows =
      List.map
        (fun spec ->
          let full = Sim.summary ~predictor t spec ~input ~width in
          let samp = Sim.sampled ~predictor ~params t spec ~input ~width in
          let base_err =
            err samp.Runner.ss_base.Smarts.est_cpi.Smarts.mean
              (cpi full.Runner.sum_base)
          in
          let exp_err =
            err samp.Runner.ss_exp.Smarts.est_cpi.Smarts.mean
              (cpi full.Runner.sum_exp)
          in
          (spec.Spec.name, base_err, exp_err))
        Suites.all
    in
    let failures = ref 0 in
    List.iter
      (fun (name, base_err, exp_err) ->
        let worst = Float.max base_err exp_err in
        if worst > max_cpi_err then begin
          incr failures;
          Printf.printf
            "sample-validate error: %s CPI error %.2f%% exceeds bound %.2f%% \
             (base %.2f%%, exp %.2f%%)\n"
            name worst max_cpi_err base_err exp_err
        end
        else
          Printf.printf
            "sample-validate ok: %s base %.2f%% exp %.2f%% (bound %.2f%%)\n"
            name base_err exp_err max_cpi_err)
      rows;
    let worst =
      List.fold_left
        (fun acc (_, b, e) -> Float.max acc (Float.max b e))
        0.0 rows
    in
    Printf.printf
      "sample-validate summary: %d benchmarks, worst CPI error %.2f%%, bound \
       %.2f%%, %d violation(s)\n"
      (List.length rows) worst max_cpi_err !failures;
    (match json with
    | None -> ()
    | Some path ->
      write_json path
        (Bv_obs.Json.Obj
           [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
             ("width", Bv_obs.Json.Int width);
             ("predictor", Bv_obs.Json.String (Kind.name predictor));
             ("input", Bv_obs.Json.Int input);
             ("scale", Bv_obs.Json.float (Runner.scale ()));
             ( "sample_params",
               Bv_obs.Json.Obj
                 [ ("period", Bv_obs.Json.Int sample_period);
                   ("detail", Bv_obs.Json.Int sample_detail);
                   ("warmup", Bv_obs.Json.Int sample_warmup)
                 ] );
             ("max_cpi_err_pct", Bv_obs.Json.float max_cpi_err);
             ("worst_cpi_err_pct", Bv_obs.Json.float worst);
             ("violations", Bv_obs.Json.Int !failures);
             ( "benchmarks",
               Bv_obs.Json.List
                 (List.map
                    (fun (name, base_err, exp_err) ->
                      Bv_obs.Json.Obj
                        [ ("benchmark", Bv_obs.Json.String name);
                          ("base_cpi_err_pct", Bv_obs.Json.float base_err);
                          ("exp_cpi_err_pct", Bv_obs.Json.float exp_err)
                        ])
                    rows) );
             dag_field ()
           ]));
    if !failures > 0 then 1 else 0
  in
  let max_cpi_err_arg =
    let doc = "Maximum tolerated |sampled - full| CPI error, in percent." in
    Arg.(value & opt float 10.0 & info [ "max-cpi-err" ] ~doc ~docv:"PCT")
  in
  Cmd.v
    (Cmd.info "sample-validate"
       ~doc:
         "Validate interval sampling against exact full runs on every \
          benchmark: compare estimated vs measured CPI on both sides and \
          fail if any error exceeds the bound.")
    Term.(
      const run $ width_arg $ predictor_arg $ input_arg $ max_cpi_err_arg
      $ sample_period_arg $ sample_detail_arg $ sample_warmup_arg $ json_arg)

(* --------------------------------------------------------------- report *)

(* Where did the cycles go? Baseline vs decomposed CPI stacks side by
   side, plus the per-site attribution join that shows which branches
   the transform actually helped. *)
let report_cmd =
  let run name width input all predictor top json =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec ->
      let sim = Sim.the () in
      let inputs = if all then Runner.input_indices () else [ input ] in
      let acc =
        (* each accounted per-input run is a DAG node (flat tables, so
           the store holds them whole); they fan out across the fork
           pool with claim arbitration and merge pointwise *)
        match Sim.accounted_list ~predictor sim spec ~inputs ~width with
        | [] -> assert false
        | first :: rest -> List.fold_left Runner.merge_accounted first rest
      in
      let base = acc.Runner.acc_base and exp = acc.Runner.acc_exp in
      let ppf =
        if json = Some "-" then Format.err_formatter else Format.std_formatter
      in
      Format.fprintf ppf "%s, %d-wide, %s, input%s %s@."
        name width (Kind.name predictor)
        (if List.length inputs > 1 then "s" else "")
        (String.concat "," (List.map string_of_int inputs));
      Format.fprintf ppf "speedup: %+.2f%%@.@." acc.Runner.acc_speedup_pct;
      let btotal = acc.Runner.acc_base_cycles
      and etotal = acc.Runner.acc_exp_cycles in
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
      (* Per-site join: a baseline branch and the resolve that replaced
         it share a site id, so rows line up across the transform. *)
      let base_sites = Acct.by_site base and exp_sites = Acct.by_site exp in
      let find sites site =
        List.find_opt (fun sa -> sa.Acct.sa_site = site) sites
      in
      let sites =
        List.sort_uniq compare
          (List.map (fun sa -> sa.Acct.sa_site) (base_sites @ exp_sites))
      in
      let joined =
        List.map
          (fun site -> (site, find base_sites site, find exp_sites site))
          sites
      in
      let recovery = function Some sa -> sa.Acct.sa_recovery | None -> 0 in
      let ranked =
        List.sort
          (fun (_, b1, e1) (_, b2, e2) ->
            compare
              (recovery b2 + recovery e2, recovery b1 + recovery e1)
              (recovery b1 + recovery e1, recovery b2 + recovery e2))
          joined
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
            (Float.of_int sa.Acct.sa_mispredicts
            /. Float.of_int sa.Acct.sa_execs)
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
        let open Bv_obs.Json in
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
               @ [ ( "delta_recovery_cycles",
                     Int (recovery e_ - recovery b_) )
                 ]))
        in
        write_json path
          (Obj
             [ ("schema_version", Int schema_version);
               ("benchmark", String name);
               ("suite", String (Spec.suite_name spec.Spec.suite));
               ("width", Int width);
               ("predictor", String (Kind.name predictor));
               ("inputs", List (List.map (fun i -> Int i) inputs));
               ("scale", float (Runner.scale ()));
               ("speedup_pct", float acc.Runner.acc_speedup_pct);
               ("baseline", Acct.to_json base);
               ("vanguard", Acct.to_json exp);
               ("sites", List (List.map site_json ranked));
               summary_stats_field name (Gen.generate ~input:(List.hd inputs) spec);
               dag_field ()
             ]));
      0
  in
  let all_arg =
    let doc = "Aggregate over all REF inputs (overrides --input)." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let top_arg =
    let doc = "Branch sites to show in the attribution table." in
    Arg.(value & opt int 10 & info [ "top" ] ~doc ~docv:"N")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Cycle-accounting report: baseline-vs-decomposed CPI stacks and \
          per-branch-site attribution of recovery cycles.")
    Term.(
      const run $ bench_arg $ width_arg $ input_arg $ all_arg $ predictor_arg
      $ top_arg $ json_arg)

(* -------------------------------------------------------------- profile *)

let profile_cmd =
  let run name predictor =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec ->
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
  let run name disasm =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec ->
      let b = Sim.bench (Sim.the ()) spec in
      let sel = Runner.selection b in
      let tr = Runner.transform b in
      Format.printf
        "%s: %d/%d forward branches selected (PBC %.1f%%), %d skipped@."
        name
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
  let disasm_arg =
    Arg.(value & flag & info [ "disasm" ] ~doc:"Print the transformed code.")
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Show candidate selection and transformation details.")
    Term.(const run $ bench_arg $ disasm_arg)

(* ----------------------------------------------------------- experiment *)

let experiment_cmd =
  let run ids json jobs =
    (match jobs with
    | Some n -> Sim.set_jobs (Sim.the ()) n
    | None -> ());
    (* With --json - the report owns stdout; the tables go to stderr. *)
    let ppf =
      if json = Some "-" then Format.err_formatter else Format.std_formatter
    in
    let ids = if ids = [ "all" ] then List.map (fun (i, _, _) -> i)
                  Experiments.all
              else ids in
    ignore (Experiments.drain_tables ());
    let entries = ref [] in
    let rec go = function
      | [] -> 0
      | id :: rest ->
        (match Experiments.find id with
        | Some f ->
          let t0 = Unix.gettimeofday () in
          f ppf;
          let seconds = Unix.gettimeofday () -. t0 in
          entries :=
            Bv_obs.Json.Obj
              [ ("id", Bv_obs.Json.String id);
                ("seconds", Bv_obs.Json.float seconds);
                ( "tables",
                  Bv_obs.Json.List
                    (List.map Experiments.table_to_json
                       (Experiments.drain_tables ())) )
              ]
            :: !entries;
          go rest
        | None ->
          Printf.eprintf "unknown experiment %s\n" id;
          1)
    in
    let status = go ids in
    (match json with
    | Some path when status = 0 ->
      write_json path
        (Bv_obs.Json.Obj
           [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
             ("scale", Bv_obs.Json.float (Runner.scale ()));
             ("experiments", Bv_obs.Json.List (List.rev !entries));
             dag_field ()
           ])
    | _ -> ());
    status
  in
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
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
  let run name transformed callgraph =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec ->
      let program =
        if transformed then
          (Runner.transform (Sim.bench (Sim.the ()) spec))
            .Vanguard.Transform.program
        else Gen.generate ~input:1 spec
      in
      if callgraph then Format.printf "%a@." Bv_ir.Dot.callgraph program
      else Format.printf "%a@." (Bv_ir.Dot.program ~bodies:false) program;
      0
  in
  let transformed_arg =
    Arg.(value & flag & info [ "transformed" ]
           ~doc:"Export the decomposed-branch version.")
  in
  let callgraph_arg =
    Arg.(value & flag & info [ "callgraph" ]
           ~doc:
             "Export the SCC-condensed call graph instead of the CFG \
              (recursive components highlighted).")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export a benchmark's CFG as Graphviz (pipe into `dot -Tsvg`).")
    Term.(const run $ bench_arg $ transformed_arg $ callgraph_arg)

(* ---------------------------------------------------------------- trace *)

let trace_cmd =
  let run name width rows transformed =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec ->
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
    Arg.(value & opt int 60 & info [ "n"; "rows" ]
           ~doc:"Instructions to trace.")
  in
  let transformed_arg =
    Arg.(value & flag & info [ "transformed" ]
           ~doc:"Trace the decomposed-branch version.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Per-instruction pipeline trace (fetch/issue/complete cycles).")
    Term.(const run $ bench_arg $ width_arg $ rows_arg $ transformed_arg)

(* ----------------------------------------------------------------- lint *)

let werror_arg =
  Arg.(
    value & flag
    & info [ "werror" ]
        ~doc:
          "Treat warning-severity diagnostics as errors for the exit \
           status. Info diagnostics never affect it.")

let lint_cmd =
  let module Diagnostic = Bv_analysis.Diagnostic in
  let run files bench suites dbb_entries interproc werror json =
    let targets = ref [] in
    let failed = ref false in
    let add name prog = targets := (name, prog) :: !targets in
    List.iter
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e ->
          prerr_endline e;
          failed := true
        | text -> (
          match Bv_ir.Asm.program text with
          | exception Bv_ir.Asm.Parse_error (line, msg) ->
            Printf.eprintf "%s:%d: %s\n" path line msg;
            failed := true
          | prog -> add path prog))
      files;
    (match bench with
    | None -> ()
    | Some name -> (
      match spec_of_name name with
      | Error e ->
        prerr_endline e;
        failed := true
      | Ok spec ->
        add (name ^ ":baseline") (Gen.generate ~input:1 spec);
        add (name ^ ":transformed")
          (Runner.transform (Sim.bench (Sim.the ()) spec))
            .Vanguard.Transform.program));
    if suites then
      List.iter
        (fun suite ->
          match Suites.of_suite suite with
          | [] -> ()
          | spec :: _ ->
            add
              (Printf.sprintf "%s:%s:transformed" (Spec.suite_name suite)
                 spec.Spec.name)
              (Runner.transform (Sim.bench (Sim.the ()) spec))
                .Vanguard.Transform.program)
        [ Spec.Int_2006; Spec.Fp_2006; Spec.Int_2000; Spec.Fp_2000 ];
    let targets = List.rev !targets in
    if targets = [] && not !failed then begin
      prerr_endline
        "nothing to lint: pass FILE arguments, -b BENCH, or --suites";
      failed := true
    end;
    let results =
      List.map
        (fun (name, prog) ->
          let summaries =
            if interproc then Some (Bv_analysis.Summary.compute prog)
            else None
          in
          ( name,
            prog,
            Bv_analysis.Speculation.verify ~dbb_entries
              ~scratch:Vanguard.Transform.default_temp_pool ?summaries prog ))
        targets
    in
    let count sev =
      List.fold_left
        (fun n (_, _, ds) -> n + Diagnostic.count sev ds)
        0 results
    in
    let errors = count Diagnostic.Error in
    let warnings = count Diagnostic.Warning in
    (match json with
    | Some path ->
      write_json path
        (Bv_obs.Json.Obj
           [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
             ("dbb_entries", Bv_obs.Json.Int dbb_entries);
             ("interproc", Bv_obs.Json.Bool interproc);
             dag_field ();
             ( "targets",
               Bv_obs.Json.List
                 (List.map
                    (fun (name, prog, diags) ->
                      obj_add
                        (Bv_obs.Json.Obj
                           [ ("target", Bv_obs.Json.String name);
                             summary_stats_field name prog
                           ])
                        (match Diagnostic.report_to_json diags with
                        | Bv_obs.Json.Obj fields -> fields
                        | _ -> []))
                    results) )
           ])
    | None ->
      List.iter
        (fun (name, _, diags) ->
          if diags = [] then Format.printf "%s: clean@." name
          else
            List.iter
              (fun d -> Format.printf "%s: %a@." name Diagnostic.pp d)
              (Diagnostic.sort diags))
        results;
      Format.printf "%d target(s): %d error(s), %d warning(s), %d info(s)@."
        (List.length results) errors warnings
        (count Diagnostic.Info));
    if !failed || errors > 0 || (werror && warnings > 0) then 1 else 0
  in
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Hidden-ISA source files (see `vanguard_cli assemble`).")
  in
  let bench_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmark" ]
          ~doc:
            "Lint a benchmark's baseline and decomposed-branch programs \
             (see `vanguard_cli list`).")
  in
  let suites_arg =
    Arg.(
      value & flag
      & info [ "suites" ]
          ~doc:
            "Lint the transformed program of one workload per benchmark \
             suite.")
  in
  let dbb_arg =
    Arg.(
      value & opt int 16
      & info [ "dbb" ] ~docv:"ENTRIES"
          ~doc:"Decoupled-branch-buffer capacity for the occupancy check.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify predict/resolve speculation safety; exits \
          non-zero on any error-severity diagnostic.")
    Term.(
      const run $ files_arg $ bench_opt_arg $ suites_arg $ dbb_arg
      $ interproc_arg $ werror_arg $ json_arg)

(* ---------------------------------------------------------------- prove *)

let prove_cmd =
  let module Diagnostic = Bv_analysis.Diagnostic in
  let module Equiv = Bv_analysis.Equiv in
  let scratch = Vanguard.Transform.default_temp_pool in
  let run files benches fuzz max_paths interproc werror json =
    let failed = ref false in
    let results = ref [] in
    let add name diags = results := (name, diags) :: !results in
    List.iter
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e ->
          prerr_endline e;
          failed := true
        | text -> (
          match Bv_ir.Asm.program text with
          | exception Bv_ir.Asm.Parse_error (line, msg) ->
            Printf.eprintf "%s:%d: %s\n" path line msg;
            failed := true
          | prog ->
            (* no reference program for a standalone file: check the
               internal consistency of its predict/resolve regions *)
            add path (Equiv.verify_self ~scratch ~max_paths prog)))
      files;
    (* Each bench proof and each fuzz seed is a DAG node: proofs fan out
       across the session's workers, persist in the store, and re-prove
       nothing on an unchanged re-run. The verdict diagnostics are plain
       data, so the store holds them whole. *)
    List.iter
      (function
        | Error e ->
          prerr_endline e;
          failed := true
        | Ok pairs -> List.iter (fun (n, ds) -> add n ds) pairs)
      (Sim.dag_map (Sim.the ()) ~kind:"prove"
         ~label:(fun (name, _, _) -> name)
         (fun (name, max_paths, interproc) ->
           match spec_of_name name with
           | Error e -> Error e
           | Ok spec ->
             (* the harness transforms the TRAIN program of the bench
                record's (BV_SCALE-scaled) spec; regenerate it from that
                spec as the reference and validate the transform output
                against it *)
             let b = Sim.bench (Sim.the ()) spec in
             let original = Gen.generate ~input:0 (Runner.spec b) in
             let transformed =
               if interproc then
                 (* re-transform with summaries: newly eligible
                    cross-call sites must prove out too *)
                 let summaries = Bv_analysis.Summary.compute original in
                 (Vanguard.Transform.apply ~summaries
                    ~exit_live:Gen.live_at_exit
                    ~candidates:(Runner.selection b).Vanguard.Select.candidates
                    original)
                   .Vanguard.Transform.program
               else (Runner.transform b).Vanguard.Transform.program
             in
             Ok
               [ ( name ^ ":transform",
                   Equiv.verify ~scratch ~exit_live:Gen.live_at_exit
                     ~max_paths ~original transformed );
                 ( name ^ ":self",
                   Equiv.verify_self ~scratch ~exit_live:Gen.live_at_exit
                     ~max_paths transformed )
               ])
         (List.map (fun name -> (name, max_paths, interproc)) benches));
    (match fuzz with
    | None -> ()
    | Some n ->
      List.iteri
        (fun seed diags -> add (Printf.sprintf "fuzz:%d" seed) diags)
        (Sim.dag_map (Sim.the ()) ~kind:"prove-fuzz"
           ~label:(fun (seed, _, _) -> Printf.sprintf "seed%d" seed)
           (fun (seed, max_paths, interproc) ->
             let prog = Fuzzgen.generate ~seed in
             let image = Layout.program (Program.copy prog) in
             let profile =
               Bv_profile.Profile.collect
                 ~predictor:(Kind.create Kind.Always_not_taken)
                 image
             in
             let candidates =
               (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0
                  ~profile prog)
                 .Vanguard.Select.candidates
             in
             let summaries =
               if interproc then Some (Bv_analysis.Summary.compute prog)
               else None
             in
             let result = Vanguard.Transform.apply ?summaries ~candidates prog in
             Equiv.verify ~scratch ~max_paths ~original:prog
               result.Vanguard.Transform.program)
           (List.init n (fun seed -> (seed, max_paths, interproc)))));
    let results = List.rev !results in
    if results = [] && not !failed then begin
      prerr_endline
        "nothing to prove: pass FILE arguments, -b BENCH, or --fuzz N";
      failed := true
    end;
    let count sev =
      List.fold_left (fun n (_, ds) -> n + Diagnostic.count sev ds) 0 results
    in
    let errors = count Diagnostic.Error in
    let warnings = count Diagnostic.Warning in
    let flagged =
      List.filter
        (fun (_, ds) ->
          List.exists
            (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
            ds)
        results
    in
    let clean = List.length results - List.length flagged in
    (match json with
    | Some path ->
      let bench_stats =
        List.filter_map
          (fun name ->
            match spec_of_name name with
            | Error _ -> None
            | Ok spec ->
              let _, stats =
                summary_stats_field name (Gen.generate ~input:0 spec)
              in
              Some (name, stats))
          benches
      in
      write_json path
        (Bv_obs.Json.Obj
           [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
             ("interproc", Bv_obs.Json.Bool interproc);
             ("summary_stats", Bv_obs.Json.Obj bench_stats);
             ("targets_checked", Bv_obs.Json.Int (List.length results));
             ("proven_clean", Bv_obs.Json.Int clean);
             ("errors", Bv_obs.Json.Int errors);
             ("warnings", Bv_obs.Json.Int warnings);
             ("infos", Bv_obs.Json.Int (count Diagnostic.Info));
             dag_field ();
             ( "targets",
               Bv_obs.Json.List
                 (List.map
                    (fun (name, diags) ->
                      obj_add
                        (Bv_obs.Json.Obj
                           [ ("target", Bv_obs.Json.String name) ])
                        (match Diagnostic.report_to_json diags with
                        | Bv_obs.Json.Obj fields -> fields
                        | _ -> []))
                    flagged) )
           ])
    | None ->
      List.iter
        (fun (name, diags) ->
          List.iter
            (fun d -> Format.printf "%s: %a@." name Diagnostic.pp d)
            (Diagnostic.sort diags))
        flagged;
      Format.printf
        "%d target(s) checked, %d proven clean: %d error(s), %d \
         warning(s), %d info(s)@."
        (List.length results) clean errors warnings
        (count Diagnostic.Info));
    if !failed || errors > 0 || (werror && warnings > 0) then 1 else 0
  in
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Hidden-ISA source files; with no reference program available \
             they get the self-consistency check only.")
  in
  let bench_opt_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "b"; "benchmark" ]
          ~doc:
            "Prove the benchmark's decomposed-branch program equivalent to \
             its baseline (repeatable; see `vanguard_cli list`).")
  in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Generate N seeded fuzz programs, transform each, and prove \
             every transform output equivalent to its original.")
  in
  let max_paths_arg =
    Arg.(
      value & opt int 4096
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
      const run $ files_arg $ bench_opt_arg $ fuzz_arg $ max_paths_arg
      $ interproc_arg $ werror_arg $ json_arg)

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
  let open Bv_obs.Json in
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
  let run benches suites validate width all predictor top corr_floor
      warn_only dbb fuzz interproc werror json =
    let failed = ref false in
    let warned = ref false in
    let specs =
      List.filter_map
        (fun name ->
          match spec_of_name name with
          | Ok spec -> Some spec
          | Error e ->
            prerr_endline e;
            failed := true;
            None)
        benches
      @ (if suites then Suites.all else [])
    in
    let specs =
      List.sort_uniq (fun a b -> compare a.Spec.name b.Spec.name) specs
    in
    if specs = [] && fuzz = None && not !failed then begin
      prerr_endline "nothing to advise: pass -b BENCH, --suites, or --fuzz N";
      failed := true
    end;
    let config = { Advisor.default_config with Advisor.dbb_entries = dbb } in
    let sim = Sim.the () in
    let inputs = if all then Runner.input_indices () else [ 1 ] in
    (* Prepare, advise and (optionally) validate are DAG nodes — one per
       target, keyed by everything the verdict depends on — fanned out
       across the session's workers. Everything a worker returns is
       plain marshal-safe data. *)
    let results =
      Sim.dag_map sim ~kind:"advise"
        ~label:(fun (spec, _) -> spec.Spec.name)
        (fun (spec, (predictor, config, inputs, width, validate, interproc)) ->
          let b = Sim.prepare ~predictor sim spec in
          let checked =
            if validate then
              Some
                (Runner.advise_validate ~predictor ~config ~interproc ~inputs
                   b ~width)
            else None
          in
          let advice =
            match checked with
            | Some c -> c.Runner.ac_advice
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
        (List.map
           (fun spec ->
             (spec, (predictor, config, inputs, width, validate, interproc)))
           specs)
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
      match fuzz with
      | None -> []
      | Some n ->
        Sim.dag_map sim ~kind:"advise-fuzz"
          ~label:(fun (seed, _) -> Printf.sprintf "seed%d" seed)
          (fun (seed, (config, interproc)) ->
            let prog = Fuzzgen.generate ~seed in
            let image = Layout.program (Program.copy prog) in
            let profile =
              Bv_profile.Profile.collect
                ~predictor:(Kind.create Kind.Always_not_taken)
                image
            in
            let summaries =
              if interproc then Some (Bv_analysis.Summary.compute prog)
              else None
            in
            let advice =
              Advisor.advise ~config ~profile
                (Costmodel.analyze ?summaries prog)
            in
            let gains =
              if interproc then interproc_gains ~config ~profile prog
              else []
            in
            (Printf.sprintf "fuzz:%d" seed, advice, None, gains))
          (List.init n (fun seed -> (seed, (fuzz_config, interproc))))
    in
    let results = results @ fuzz_results in
    let ppf =
      if json = Some "-" then Format.err_formatter else Format.std_formatter
    in
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
          let v = c.Runner.ac_validation in
          let joined = List.length v.Advisor.joined in
          Format.fprintf ppf
            "%s: validation over %d input(s): %d site(s) joined, peak DBB \
             occupancy %d@."
            name c.Runner.ac_inputs joined c.Runner.ac_max_outstanding;
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
      let open Bv_obs.Json in
      let all_gains = List.concat_map (fun (_, _, _, g) -> g) results in
      let proved =
        List.filter (fun (_, _, _, _, _, p) -> p) all_gains
      in
      let bench_stats =
        List.map
          (fun spec ->
            let _, stats =
              summary_stats_field spec.Spec.name (Gen.generate ~input:0 spec)
            in
            (spec.Spec.name, stats))
          specs
      in
      write_json path
        (Obj
           [ ("schema_version", Int schema_version);
             ("width", Int width);
             ("predictor", String (Kind.name predictor));
             ("dbb_entries", Int dbb);
             ("corr_floor", float corr_floor);
             ("interproc", Bool interproc);
             ("summary_stats", Obj bench_stats);
             ("gains_total", Int (List.length all_gains));
             ("gains_proved", Int (List.length proved));
             ("inputs", List (List.map (fun i -> Int i) inputs));
             ("scale", float (Runner.scale ()));
             dag_field ();
             ( "targets",
               List
                 (List.map
                    (fun (name, advice, checked, gains) ->
                      obj_add
                        (Obj
                           [ ("target", String name);
                             ("gains", List (List.map gain_json gains))
                           ])
                        ((match Advisor.to_json advice with
                         | Obj fields -> fields
                         | _ -> [])
                        @
                        match checked with
                        | None -> []
                        | Some c ->
                          [ ( "validation",
                              Advisor.validation_to_json
                                c.Runner.ac_validation );
                            ( "max_outstanding",
                              Int c.Runner.ac_max_outstanding )
                          ]))
                    results) )
           ]));
    if !failed || (werror && !warned) then 1 else 0
  in
  let bench_opt_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "b"; "benchmark" ]
          ~doc:"Advise on a benchmark (repeatable; see `vanguard_cli list`).")
  in
  let suites_arg =
    Arg.(
      value & flag
      & info [ "suites" ] ~doc:"Advise on every benchmark of every suite.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Join the static cycles-saved ranking against measured per-site \
             recovery cycles from an accounted baseline simulation, and \
             report the Spearman rank correlation.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Validate against all REF inputs, merged (default: input 1).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Sites to show per target.")
  in
  let corr_floor_arg =
    Arg.(
      value & opt float 0.0
      & info [ "corr-floor" ] ~docv:"RHO"
          ~doc:
            "Fail validation when the rank correlation falls below $(docv) \
             (with at least 5 joined sites).")
  in
  let warn_only_arg =
    Arg.(
      value & flag
      & info [ "warn-only" ]
          ~doc:"Downgrade a correlation-floor failure to a warning.")
  in
  let dbb_arg =
    Arg.(
      value & opt int 16
      & info [ "dbb" ] ~docv:"ENTRIES"
          ~doc:"Decoupled-branch-buffer capacity for the pressure gate.")
  in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Also advise on N seeded fuzz programs (selection-style \
             gating: no heat or margin requirement). With --interproc \
             this is where cross-call gains are expected.")
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Static profitability analysis: rank every branch site by \
          estimated decomposition savings; optionally cross-validate the \
          ranking against measured cycle attribution.")
    Term.(
      const run $ bench_opt_arg $ suites_arg $ validate_arg $ width_arg
      $ all_arg $ predictor_arg $ top_arg $ corr_floor_arg $ warn_only_arg
      $ dbb_arg $ fuzz_arg $ interproc_arg $ werror_arg $ json_arg)

(* ------------------------------------------------------------ summaries *)

let summaries_cmd =
  let run files bench transformed json =
    let targets = ref [] in
    let failed = ref false in
    let add name prog = targets := (name, prog) :: !targets in
    List.iter
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e ->
          prerr_endline e;
          failed := true
        | text -> (
          match Bv_ir.Asm.program text with
          | exception Bv_ir.Asm.Parse_error (line, msg) ->
            Printf.eprintf "%s:%d: %s\n" path line msg;
            failed := true
          | prog -> add path prog))
      files;
    (match bench with
    | None -> ()
    | Some name -> (
      match spec_of_name name with
      | Error e ->
        prerr_endline e;
        failed := true
      | Ok spec ->
        if transformed then
          add (name ^ ":transformed")
            (Runner.transform (Sim.bench (Sim.the ()) spec))
              .Vanguard.Transform.program
        else add (name ^ ":baseline") (Gen.generate ~input:1 spec)));
    let targets = List.rev !targets in
    if targets = [] && not !failed then begin
      prerr_endline
        "nothing to summarize: pass FILE arguments or -b BENCH";
      failed := true
    end;
    let results = List.map (fun (name, prog) -> (name, summary_node name prog)) targets in
    (match json with
    | Some path ->
      write_json path
        (Bv_obs.Json.Obj
           [ ("schema_version", Bv_obs.Json.Int Bv_obs.Json.schema_version);
             dag_field ();
             ( "targets",
               Bv_obs.Json.List
                 (List.map
                    (fun (name, (_, stats, full)) ->
                      Bv_obs.Json.Obj
                        [ ("target", Bv_obs.Json.String name);
                          ("summary_stats", stats);
                          ("summaries", full)
                        ])
                    results) )
           ])
    | None ->
      List.iter
        (fun (name, (procs, _, _)) ->
          Format.printf "%s: %d procedure(s)@." name (List.length procs);
          List.iter
            (fun s -> Format.printf "  %a@." Bv_analysis.Summary.pp s)
            procs)
        results);
    if !failed then 1 else 0
  in
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Hidden-ISA source files (see `vanguard_cli assemble`).")
  in
  let bench_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmark" ]
          ~doc:"Summarize a benchmark's baseline program.")
  in
  let transformed_arg =
    Arg.(
      value & flag
      & info [ "transformed" ]
          ~doc:"Summarize the decomposed-branch version instead.")
  in
  Cmd.v
    (Cmd.info "summaries"
       ~doc:
         "Compute and print interprocedural per-procedure summaries \
          (register mod/use sets, memory footprints, purity), cached as \
          \"summary\" nodes in the DAG store.")
    Term.(
      const run $ files_arg $ bench_opt_arg $ transformed_arg $ json_arg)

(* ------------------------------------------------------------- assemble *)

let assemble_cmd =
  let run path simulate =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> prerr_endline e; 1
    | text -> (
      match Bv_ir.Asm.program text with
      | exception Bv_ir.Asm.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" path line msg;
        1
      | prog ->
        let image = Layout.program prog in
        Format.printf "%a@." Layout.pp_disassembly image;
        if simulate then begin
          let st = Bv_exec.Interp.run image in
          Format.printf "interpreter: %d instructions, halted=%b@."
            st.Bv_exec.Interp.instr_count st.Bv_exec.Interp.halted;
          let res = Machine.run ~config:Config.four_wide image in
          Format.printf "%a@." Stats.pp res.Machine.stats
        end;
        0)
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let simulate_arg =
    Arg.(value & flag & info [ "run" ] ~doc:"Also interpret and simulate.")
  in
  Cmd.v
    (Cmd.info "assemble"
       ~doc:"Assemble a hidden-ISA source file; print its layout.")
    Term.(const run $ path_arg $ simulate_arg)

(* ------------------------------------------------------------------ dag *)

let dag_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Cache directory to operate on (default: the session's store, \
           \\$(b,BV_CACHE) or .bv-cache).")

let resolve_dag_dir = function
  | Some dir -> Ok dir
  | None -> (
    match Sim.cache_dir (Sim.the ()) with
    | Some dir -> Ok dir
    | None -> Error "cache disabled (BV_CACHE=none); pass --dir")

let short_key k = if String.length k > 12 then String.sub k 0 12 else k

let dag_status_cmd =
  let run dir json =
    match resolve_dag_dir dir with
    | Error e ->
      prerr_endline ("error: " ^ e);
      1
    | Ok dir ->
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
    match resolve_dag_dir dir with
    | Error e ->
      prerr_endline ("error: " ^ e);
      1
    | Ok dir ->
      let report =
        Dag.gc
          ?max_age:(Option.map (fun d -> d *. 86400.0) max_age_days)
          ?max_bytes:
            (Option.map (fun mb -> Float.to_int (mb *. 1024.0 *. 1024.0))
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
      & opt (some float) None
      & info [ "max-age-days" ] ~docv:"DAYS"
          ~doc:"Prune nodes whose last use is older than $(docv).")
  in
  let max_size_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-size-mb" ] ~docv:"MB"
          ~doc:
            "After age pruning, evict least-recently-used nodes until the \
             store fits in $(docv).")
  in
  let dry_run_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ] ~doc:"Report what would be pruned; touch nothing.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Prune the DAG store by age and size (least-recently-used first); \
          always sweeps stale claims.")
    Term.(
      const run $ dag_dir_arg $ max_age_arg $ max_size_arg $ dry_run_arg
      $ json_arg)

let dag_explain_cmd =
  let run dir key json =
    match resolve_dag_dir dir with
    | Error e ->
      prerr_endline ("error: " ^ e);
      1
    | Ok dir -> (
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
          List.iter
            (fun d -> Printf.printf "  dep %s\n" d)
            x.Dag.x_deps;
          Printf.printf "  created %s by pid %d in %.3fs\n" x.Dag.x_created_at
            x.Dag.x_pid x.Dag.x_compute_seconds;
          Printf.printf "  %d bytes, last used %.0fs ago\n" x.Dag.x_bytes
            x.Dag.x_age;
          if x.Dag.x_events <> [] then begin
            Printf.printf "  provenance:\n";
            List.iter (fun e -> Printf.printf "    %s\n" e) x.Dag.x_events
          end);
        0)
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
         "Show one stored node's hash inputs, dependencies and hit/miss \
          provenance.")
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
  let run name =
    match spec_of_name name with
    | Error e -> prerr_endline e; 1
    | Ok spec ->
      let image = Layout.program (Gen.generate ~input:1 spec) in
      Format.printf "%a@." Layout.pp_disassembly image;
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
    [ list_cmd; run_cmd; sample_validate_cmd; report_cmd; profile_cmd;
      transform_cmd; experiment_cmd; disasm_cmd; dot_cmd; lint_cmd;
      prove_cmd; advise_cmd; summaries_cmd; assemble_cmd; trace_cmd; dag_cmd
    ]

let () = exit (Cmd.eval' main)
