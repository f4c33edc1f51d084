(* bvbench: the repository benchmark.

     bvbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     bvbench check-config BENCHMARK.json

   A run sets its workload up [setup_reps] times, then runs rounds of
   checked ops until [--seconds] have passed and prints every metric as
   `<name> <value> <unit>`, then one JSON line
   {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
   end-to-end metrics; traced runs alternate traced and untraced rounds,
   write the spans as a Chrome trace under .bvbench/ and report the
   per-layer metrics. Exits 1 when any op failed, 2 on bad usage. *)

type metric = { name : string; unit : string; better : string; bound : float option }

let m ?bound name unit better = { name; unit; better; bound }

(* The end-to-end metrics every workload reports. *)
let end_to_end =
  [ m "setup_s" "s" "lower" ~bound:0.25;
    m "round_s" "s" "lower" ~bound:0.2;
    m "peak_rss_mb" "MB" "lower" ~bound:0.15
  ]

let per_layer =
  let acct =
    List.map
      (fun c ->
        m ("acct." ^ c ^ "_pct") "%" (if c = "base" then "higher" else "lower"))
      (Array.to_list Bv_pipeline.Acct.component_names)
  in
  [ m "workloads.gen_s" "s" "lower";
    m "sched.schedule_s" "s" "lower";
    m "profile.collect_s" "s" "lower";
    m "core.select_s" "s" "lower";
    m "core.transform_s" "s" "lower";
    m "core.sites_transformed" "count" "higher";
    m "analysis.summary_s" "s" "lower";
    m "analysis.lint_s" "s" "lower";
    m "analysis.equiv_s" "s" "lower";
    m "analysis.advise_s" "s" "lower";
    m "analysis.error_diagnostics" "count" "lower";
    m "toolchain.target_ms.p50" "ms" "lower";
    m "toolchain.target_ms.p95" "ms" "lower";
    m "exec.interp_s" "s" "lower";
    m "pipeline.detailed_s" "s" "lower";
    m "pipeline.acct_s" "s" "lower";
    m "pipeline.sampled_s" "s" "lower";
    m "pipeline.detailed_mcps" "Mcycles/s" "higher";
    m "pipeline.acct_mcps" "Mcycles/s" "higher";
    m "pipeline.sampled_mcps" "Mcycles/s" "higher";
    m "pipeline.interpreted_mcps" "Mcycles/s" "higher";
    m "pipeline.compile_gain_pct" "%" "higher";
    m "pipeline.minor_words_per_cycle" "words/cycle" "lower";
    m "pipeline.major_words_per_cycle" "words/cycle" "lower";
    m "pipeline.sampled_detail_pct" "%" "lower";
    m "pipeline.sampled_cpi_err_pct" "%" "lower";
    m "pipeline.speedup_pct" "%" "higher";
    m "pipeline.ipc" "instr/cycle" "higher";
    m "pipeline.squashed_issue_pct" "%" "lower";
    m "pipeline.dbb_avg_occupancy" "entries" "lower";
    m "pipeline.dbb_full_stalls" "count" "lower";
    m "pipeline.runahead_prefetches_pki" "1/kinstr" "higher"
  ]
  @ acct
  @ [ m "bpred.mpki" "1/kinstr" "lower";
      m "bpred.tage_ns" "ns" "lower";
      m "bpred.tournament_ns" "ns" "lower";
      m "cache.l1d_mpki" "1/kinstr" "lower";
      m "cache.l1i_mpki" "1/kinstr" "lower";
      m "cache.l2_mpki" "1/kinstr" "lower";
      m "cache.l3_mpki" "1/kinstr" "lower";
      m "cache.data_access_ns" "ns" "lower";
      m "trace.coverage_pct" "%" "higher";
      m "trace.overhead_pct" "%" "lower"
    ]

let workloads =
  [ ("sim-branchy", fun ~seed -> Sim_work.workload ~seed Sim_work.branchy);
    ("sim-memory", fun ~seed -> Sim_work.workload ~seed Sim_work.memory);
    ("sim-runahead", fun ~seed -> Sim_work.workload ~seed Sim_work.runahead);
    ("toolchain", Toolchain_work.workload)
  ]

(* ------------------------------------------------------------------ micros *)

(* Median ns per call of [f] over a few batches, in a span of its own. *)
let ns_per_call span f =
  let n = 100_000 in
  let batch () =
    snd (Obs.timed (fun () -> Obs.span span (fun () -> for i = 1 to n do f i done)))
  in
  1e9 *. Obs.median (List.init 5 (fun _ -> batch ())) /. Float.of_int n

let predictor_ns kind =
  let p = Bv_bpred.Kind.create kind in
  ns_per_call "bpred.micro" (fun i ->
      let taken = i land 3 <> 0 and pc = 0x40 + (i land 63) in
      let _, meta = p.Bv_bpred.Predictor.predict ~pc ~outcome:taken in
      p.Bv_bpred.Predictor.update meta ~pc ~taken)

let cache_ns () =
  let h = Bv_cache.Hierarchy.create () in
  ns_per_call "cache.micro" (fun i ->
      ignore
        (Bv_cache.Hierarchy.data_access_latency h
           ~addr:((i * 4096) land 0xFFFFF) ~write:false))

let micros () =
  [ ("bpred.tage_ns", predictor_ns Bv_bpred.Kind.Tage);
    ("bpred.tournament_ns", predictor_ns Bv_bpred.Kind.Tournament);
    ("cache.data_access_ns", cache_ns ())
  ]

(* -------------------------------------------------------------------- run *)

(* Set-ups per run; [setup_s] is their median. *)
let setup_reps = 5

let fail_usage msg =
  prerr_endline ("bvbench: " ^ msg);
  exit 2

let run ~workload ~seed ~seconds ~trace =
  (match
     List.find_opt
       (fun kv -> String.starts_with ~prefix:"BV_" kv)
       (Array.to_list (Unix.environment ()))
   with
  | Some kv -> fail_usage ("refusing to run with " ^ kv ^ " set: runs are hermetic")
  | None -> ());
  let make =
    match List.assoc_opt workload workloads with
    | Some make -> make
    | None -> fail_usage ("unknown workload " ^ workload)
  in
  let w = make ~seed in
  Obs.sensitivity := w.Obs.sensitivity;
  Obs.read_host ();
  for i = 1 to setup_reps do
    let (), dt = Obs.timed (fun () -> Obs.phase ~traced:trace "setup" w.Obs.setup) in
    Obs.scaled dt (fun s -> Obs.setup_samples := s :: !Obs.setup_samples);
    Obs.read_host ();
    Printf.eprintf "setup %d: %.3f s, reference loop %.3f ms\n%!" i dt !Obs.last_reading
  done;
  let rounds = ref [] in
  let t0 = Obs.now () in
  while List.length !rounds < (if trace then 2 else 1) || Obs.now () -. t0 < seconds do
    let r = List.length !rounds in
    (* traced, untraced, untraced, traced, ...: each round order (see
       Sim_work.run_image) is traced and untraced equally often *)
    let traced = trace && (r + (r / 2)) mod 2 = 0 in
    let (), dt = Obs.timed (fun () -> Obs.phase ~traced "round" (fun () -> w.Obs.round r)) in
    Obs.read_host ();
    Printf.eprintf "round %d: %.3f s, reference loop %.3f ms%s\n%!" r dt !Obs.last_reading
      (if traced then " (traced)" else "");
    rounds := (traced, dt) :: !rounds
  done;
  let layer =
    if not trace then []
    else begin
      let micros = Obs.phase ~traced:true "probe" (fun () -> w.Obs.probe (); micros ()) in
      let times traced =
        Obs.median (List.filter_map (fun (t, dt) -> if t = traced then Some dt else None) !rounds)
      in
      micros @ w.Obs.layers ()
      @ [ ("trace.coverage_pct", Obs.coverage_pct ());
          ("trace.overhead_pct", 100.0 *. ((times true /. times false) -. 1.0))
        ]
    end
  in
  let values =
    if trace then
      List.map
        (fun d ->
          let v =
            match List.assoc_opt d.name layer with
            | Some v -> v
            | None ->
              if String.ends_with ~suffix:"_s" d.name then
                Obs.layer_seconds (String.sub d.name 0 (String.length d.name - 2))
              else 0.0
          in
          (d, v))
        per_layer
    else
      List.combine end_to_end
        [ Obs.median !Obs.setup_samples;
          Obs.round_seconds ();
          Obs.peak_rss_mb ()
        ]
  in
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun d -> d.name = k) per_layer) then
        failwith ("undeclared layer metric " ^ k))
    layer;
  if trace then begin
    let dir = ".bvbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    Obs.write_chrome_trace path;
    Printf.printf "chrome trace: %s\n%-34s %7s %10s %7s\n" path "layer" "calls" "self s" "wall%";
    List.iter
      (fun (name, calls, self, share) ->
        Printf.printf "%-34s %7d %10.4f %7.2f\n" name calls self share)
      (Obs.layer_table ())
  end;
  let open Bv_obs.Json in
  List.iter (fun (d, v) -> Printf.printf "%s %s %s\n" d.name (to_string (float v)) d.unit) values;
  let ok = !Obs.failed = 0 in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool ok);
            ("attempted", Int !Obs.attempted);
            ("failed", Int !Obs.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (d, v) -> (d.name, Obj [ ("value", float v); ("unit", String d.unit) ]))
                   values) )
          ]));
  exit (if ok then 0 else 1)

(* ----------------------------------------------------------- check-config *)

let check_config path =
  let open Bv_obs.Json in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let valid_name s =
    s <> ""
    && String.for_all
         (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         s
  in
  (match of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> err "%s does not parse: %s" path e
  | Ok doc ->
    let list key = Option.fold ~none:[] ~some:to_list (member key doc) in
    let str key o = match member key o with Some (String s) -> Some s | _ -> None in
    let names key = List.filter_map (str "name") (list key) in
    (match doc with
    | Obj fields ->
      let keys = List.sort compare (List.map fst fields) in
      let want =
        List.sort compare
          [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      in
      if keys <> want then err "top-level keys are %s" (String.concat "," keys)
    | _ -> err "not a JSON object");
    List.iter
      (fun key ->
        List.iter
          (fun n ->
            if not (valid_name n) then err "%s: bad name %S" key n)
          (names key);
        let ns = names key in
        if List.length (List.sort_uniq compare ns) <> List.length ns then
          err "%s: duplicate names" key)
      [ "workloads"; "end_to_end"; "per_layer" ];
    List.iter
      (fun key ->
        List.iter
          (fun o ->
            match str "unit" o with
            | Some u
              when String.length u <= 16
                   && String.for_all
                        (function
                          | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
                          | _ -> false)
                        u -> ()
            | _ -> err "%s: bad unit on %s" key (Option.value ~default:"?" (str "name" o)))
          (list key))
      [ "end_to_end"; "per_layer" ];
    List.iter
      (fun o ->
        match str "why" o with
        | Some why when String.length why <= 200 && not (String.contains why '\n') -> ()
        | _ -> err "workloads: %s needs a one-line why" (Option.value ~default:"?" (str "name" o)))
      (list "workloads");
    let bounded key lo hi =
      let n = List.length (list key) in
      if n < lo || n > hi then err "%s: %d entries (want %d..%d)" key n lo hi
    in
    bounded "workloads" 2 8;
    bounded "end_to_end" 1 16;
    bounded "per_layer" 1 128;
    let same_set key declared =
      let decl = List.map (fun d -> (d.name, d.unit, d.better)) declared in
      let got =
        List.map
          (fun o ->
            ( Option.value ~default:"" (str "name" o),
              Option.value ~default:"" (str "unit" o),
              Option.value ~default:"" (str "better" o) ))
          (list key)
      in
      if List.sort compare decl <> List.sort compare got then
        err "%s: bvbench emits a different metric set (name, unit, better)" key
    in
    same_set "end_to_end" end_to_end;
    same_set "per_layer" per_layer;
    List.iter
      (fun o ->
        let expected_keys = [ "better"; "bound"; "name"; "unit" ] in
        (match o with
        | Obj f when List.sort compare (List.map fst f) = expected_keys -> ()
        | _ -> err "end_to_end: every metric needs exactly name, unit, better, bound");
        let bound =
          match member "bound" o with
          | Some (Float b) -> Some b
          | Some (Int b) -> Some (Float.of_int b)
          | _ -> None
        in
        match (bound, List.find_opt (fun d -> Some d.name = str "name" o) end_to_end) with
        | Some b, Some d when Some b = d.bound && b > 0.0 && b <= 0.25 -> ()
        | _ -> err "end_to_end: %s has no bound in (0, 0.25] matching bvbench's"
                 (Option.value ~default:"?" (str "name" o)))
      (list "end_to_end");
    if List.sort compare (names "workloads") <> List.sort compare (List.map fst workloads)
    then err "workloads: bvbench runs %s" (String.concat ", " (List.map fst workloads)));
  match !errors with
  | [] -> print_endline (path ^ ": ok")
  | es ->
    List.iter (fun e -> prerr_endline ("check-config: " ^ e)) (List.rev es);
    exit 1

(* -------------------------------------------------------------------- main *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "check-config" :: [ path ] -> check_config path
  | _ :: "run" :: args ->
    let workload = ref "" and seed = ref 0 and seconds = ref 20.0 and trace = ref 0 in
    let spec =
      [ ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N input seed (default 0)");
        ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
        ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run")
      ]
    in
    (try
       Arg.parse_argv ~current:(ref 0) (Array.of_list ("bvbench run" :: args)) spec
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
         "bvbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
     with
    | Arg.Bad msg | Arg.Help msg -> fail_usage msg);
    if !workload = "" || (!trace <> 0 && !trace <> 1) then
      fail_usage "run needs --workload NAME and --trace 0 or 1";
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | _ -> fail_usage "usage: bvbench run --workload NAME ... | bvbench check-config FILE"
