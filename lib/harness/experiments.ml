open Bv_bpred
open Bv_cache
open Bv_pipeline
open Bv_workloads

let progress fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "  [bench] %s\n%!" s)
    fmt

(* ------------------------------------------------------------------ lab *)

(* All prepare/simulate traffic goes through the shared default session:
   both are nodes of its memoized experiment DAG, persisted in the
   content-hashed BV_CACHE store, and [rows] fans row-level work out
   across the session's workers (BV_JOBS / --jobs). Every timing run is
   one [sim] node keyed by its image and machine config, so experiments
   that time the same side share it, and a re-run with unchanged inputs
   simulates nothing. Rows themselves are cheap and recomputed every
   run. Worker results are reassembled by index, so a parallel run
   emits byte-identical tables to a serial one. *)
let sim = lazy (Sim.the ())

let prepare ?threshold ?max_hoist spec =
  Sim.prepare ?threshold ?max_hoist (Lazy.force sim) spec

let bench spec = prepare spec
let simulate ~config img = Sim.simulate (Lazy.force sim) ~config img

let pair ?predictor ?cache spec ~input ~width =
  Sim.pair ?predictor ?cache (Lazy.force sim) (bench spec) ~input ~width

let avg_speedup b ~width = Sim.avg_speedup (Lazy.force sim) b ~width

let cycles (r : Runner.run) = r.Runner.stats.Stats.cycles

let speedup ~base ~exp = Runner.speedup_pct ~base:(cycles base) ~exp:(cycles exp)

let rows f items = Sim.map (Lazy.force sim) f items

(* Collapse whitespace runs so multi-line string literals render cleanly. *)
let normalize text =
  String.concat " "
    (List.filter
       (fun w -> w <> "")
       (String.split_on_char ' '
          (String.map (function '\n' -> ' ' | c -> c) text)))

let heading ppf title = Format.fprintf ppf "@.=== %s ===@." (normalize title)

(* Every emitted table is also captured structurally (name, headers, rows)
   so --json consumers get the data without scraping the rendered
   text. *)
let captured : (string * string list * string list list) list ref = ref []

let drain_tables () =
  let tables = List.rev !captured in
  captured := [];
  tables

let table_to_json (name, headers, rows) =
  let open Bv_obs.Json in
  Obj
    [ ("schema_version", Int schema_version);
      ("name", String name);
      ("headers", List (List.map (fun h -> String h) headers));
      ( "rows",
        List
          (List.map (fun row -> List (List.map (fun c -> String c) row)) rows)
      )
    ]

(* The results/*.csv files that failed to write since the last drain. *)
let csv_failed : string list ref = ref []

let drain_csv_failures () =
  let failed = List.rev !csv_failed in
  csv_failed := [];
  failed

(* Print a table; with BV_CSV set, also drop the data under results/. *)
let emit ?csv ppf ~headers rows =
  (match csv with
  | Some name -> captured := (name, headers, rows) :: !captured
  | None -> ());
  Format.fprintf ppf "%s@." (Text.render ~headers rows);
  match (csv, Sys.getenv_opt "BV_CSV") with
  | Some name, Some _ ->
    let path = Filename.concat "results" (name ^ ".csv") in
    (try
       if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
       Out_channel.with_open_text path (fun oc ->
           Out_channel.output_string oc (Text.csv ~headers rows);
           (* reports a failing final flush, which the implicit close
              drops *)
           Out_channel.close oc)
     with Sys_error e ->
       (* an open error names the file already; a write error does not *)
       let e =
         if String.starts_with ~prefix:path e then e else path ^ ": " ^ e
       in
       csv_failed := path :: !csv_failed;
       progress "csv export failed: %s" e)
  | _ -> ()

(* --------------------------------------------------------------- table1 *)

let table1 ppf =
  heading ppf "Table 1: Machine Configuration Parameters";
  List.iter
    (fun c -> Format.fprintf ppf "%a@.@." Config.pp c)
    [ Config.two_wide; Config.four_wide; Config.eight_wide ]

(* -------------------------------------------------------------- fig 2/3 *)

(* Per benchmark: every forward hammock site, sorted by bias descending;
   curves are resampled to a common length and averaged position-wise
   (the paper's "top N most-executed forward branches (sorted by bias)
   averaged across the suite"). *)
let bias_predictability_curve suite =
  let points = 40 in
  let curves =
    rows
      (fun spec ->
        let profile = Runner.profile (bench spec) in
        let sites =
          List.filter
            (fun s -> s.Bv_profile.Profile.id < 900_000)
            (Bv_profile.Profile.sites_by_execution profile)
        in
        let sorted =
          List.sort
            (fun a b ->
              Float.compare (Bv_profile.Profile.bias b)
                (Bv_profile.Profile.bias a))
            sites
        in
        Array.of_list
          (List.map
             (fun s ->
               (Bv_profile.Profile.bias s, Bv_profile.Profile.predictability s))
             sorted))
      (Suites.of_suite suite)
  in
  Array.init points (fun i ->
      let at curve =
        let n = Array.length curve in
        if n = 0 then None
        else Some curve.(min (n - 1) (i * n / points))
      in
      let samples = List.filter_map at curves in
      let biases = List.map fst samples in
      let preds = List.map snd samples in
      (Agg.mean biases, Agg.mean preds))

let fig23 ppf ~title suite =
  heading ppf title;
  let curve = bias_predictability_curve suite in
  emit ~csv:(if suite = Spec.Int_2006 then "fig2" else "fig3") ppf
    ~headers:[ "rank%"; "bias"; "predictability"; "" ]
    (Array.to_list
          (Array.mapi
             (fun i (bias, pred) ->
               [ Printf.sprintf "%d" (i * 100 / Array.length curve);
                 Text.f3 bias;
                 Text.f3 pred;
                 Text.bar pred ~width:40 ~scale:0.025
               ])
             curve))

let fig2 ppf =
  fig23 ppf
    ~title:
      "Figure 2: predictability vs bias, forward branches, SPEC 2006 Int"
    Spec.Int_2006

let fig3 ppf =
  fig23 ppf
    ~title:"Figure 3: predictability vs bias, forward branches, SPEC 2006 FP"
    Spec.Fp_2006

(* --------------------------------------------------------------- table2 *)

let table2 ppf =
  heading ppf "Table 2: SPEC 2006 Int and FP metrics (4-wide), sorted by SPD";
  let data =
    rows
      (fun spec ->
        progress "table2 %s" spec.Spec.name;
        (* the speedup figures' sim nodes: table2 and fig8/fig12 reuse
           each other's runs *)
        let spd = avg_speedup (bench spec) ~width:4 in
        let base, _ = pair spec ~input:1 ~width:4 in
        Metrics.table2_row ~spd ~base (bench spec))
      (Suites.int_2006 @ Suites.fp_2006)
  in
  let rows =
    List.sort (fun a b -> Float.compare b.Metrics.spd a.Metrics.spd) data
  in
  emit ~csv:"table2" ppf
    ~headers:
      [ "Name"; "SPD"; "PBC"; "PDIH"; "ALPBB"; "ASPCB"; "PHI"; "MPPKI";
        "PISCS"
      ]
    (List.map
          (fun r ->
            [ r.Metrics.name;
              Text.f1 r.Metrics.spd;
              Text.f1 r.Metrics.pbc;
              Text.f1 r.Metrics.pdih;
              Text.f1 r.Metrics.alpbb;
              Text.f1 r.Metrics.aspcb;
              Text.f1 r.Metrics.phi;
              Text.f1 r.Metrics.mppki;
              Text.f1 r.Metrics.piscs
            ])
       rows)

(* ------------------------------------------------------------- fig 8-13 *)

let widths = [ 2; 4; 8 ]

let speedup_figure ?csv ppf ~title ~suite ~pick =
  heading ppf title;
  (* One work item per benchmark: each returns its per-width speedups, so
     workers carry only (name, floats) back and the parent renders. *)
  let data =
    rows
      (fun spec ->
        progress "%s %s" title spec.Spec.name;
        (spec.Spec.name, List.map (fun w -> pick spec ~width:w) widths))
      (Suites.of_suite suite)
  in
  let s4 speedups = List.nth speedups 1 (* widths = [2; 4; 8] *) in
  let rows =
    List.map
      (fun (name, speedups) ->
        (name :: List.map Text.f1 speedups)
        @ [ Text.bar (s4 speedups) ~width:35 ~scale:1.0 ])
      data
  in
  let geos =
    List.mapi
      (fun i _ ->
        Text.f1
          (Agg.geomean_speedup_pct
             (List.map (fun (_, speedups) -> List.nth speedups i) data)))
      widths
  in
  emit ?csv ppf
    ~headers:[ "Benchmark"; "2-wide"; "4-wide"; "8-wide"; "(4-wide bar)" ]
    (rows @ [ ("GEOMEAN" :: geos) @ [ "" ] ])

let avg spec ~width = avg_speedup (bench spec) ~width
let best spec ~width = Sim.best_speedup (Lazy.force sim) (bench spec) ~width

let fig8 ppf =
  speedup_figure ~csv:"fig8" ppf
    ~title:"Figure 8: SPEC 2006 Int % speedup, avg over REF inputs"
    ~suite:Spec.Int_2006 ~pick:avg

let fig9 ppf =
  speedup_figure ~csv:"fig9" ppf
    ~title:"Figure 9: SPEC 2006 Int % speedup, best REF input"
    ~suite:Spec.Int_2006 ~pick:best

let fig10 ppf =
  speedup_figure ~csv:"fig10" ppf
    ~title:"Figure 10: SPEC 2000 Int % speedup, avg over REF inputs"
    ~suite:Spec.Int_2000 ~pick:avg

let fig11 ppf =
  speedup_figure ~csv:"fig11" ppf
    ~title:"Figure 11: SPEC 2000 Int % speedup, best REF input"
    ~suite:Spec.Int_2000 ~pick:best

let fig12 ppf =
  speedup_figure ~csv:"fig12" ppf
    ~title:"Figure 12: SPEC 2006 FP % speedup, avg over REF inputs"
    ~suite:Spec.Fp_2006 ~pick:avg

let fig13 ppf =
  speedup_figure ~csv:"fig13" ppf
    ~title:"Figure 13: SPEC 2000 FP % speedup, avg over REF inputs"
    ~suite:Spec.Fp_2000 ~pick:avg

(* ---------------------------------------------------------------- fig14 *)

let issued_increase spec =
  let per_input input =
    let base, exp = pair spec ~input ~width:4 in
    let bi = base.Runner.stats.Stats.issued in
    let ei = exp.Runner.stats.Stats.issued in
    100.0 *. (Float.of_int ei /. Float.of_int (max 1 bi) -. 1.0)
  in
  Agg.mean (List.map per_input (Runner.input_indices ()))

let fig14 ppf =
  heading ppf
    "Figure 14: % increase in instructions issued, 4-wide experimental vs \
     baseline, SPEC 2006";
  let data =
    rows
      (fun spec ->
        progress "fig14 %s" spec.Spec.name;
        let v = issued_increase spec in
        [ spec.Spec.name; Text.f2 v; Text.bar v ~width:30 ~scale:0.25 ])
      (Suites.int_2006 @ Suites.fp_2006)
  in
  emit ~csv:"fig14" ppf ~headers:[ "Benchmark"; "%issued increase"; "" ] data

(* ---------------------------------------------------------- sensitivity *)

let sensitivity ppf =
  heading ppf
    "Sensitivity (5.3): speedup vs branch predictor, hard-to-predict \
     benchmarks";
  let names = [ "astar"; "sjeng"; "gobmk"; "mcf" ] in
  let data =
    List.concat
      (rows
         (fun name ->
           let spec = Option.get (Suites.find name) in
           List.map
             (fun kind ->
               progress "sensitivity %s/%s" name (Kind.name kind);
            let base, exp = pair ~predictor:kind spec ~input:1 ~width:4 in
            let mr =
              let s = base.Runner.stats in
              100.0
              *. Float.of_int (Stats.mispredicts s)
              /. Float.of_int (max 1 s.Stats.branch_execs)
            in
            [ name;
              Kind.name kind;
              Text.f2 mr;
              Text.f2 (speedup ~base ~exp)
            ])
             Kind.sensitivity_ladder)
         names)
  in
  emit ~csv:"sensitivity" ppf
    ~headers:[ "Benchmark"; "Predictor"; "mispredict%"; "speedup%" ]
    data

(* --------------------------------------------------------------- icache *)

let icache ppf =
  heading ppf
    "I$ study (6.1): 32 KB -> 24 KB instruction cache, 4-wide experimental \
     build";
  let small_cache =
    { Hierarchy.default_config with Hierarchy.l1i_bytes = 24 * 1024;
      l1i_ways = 3
    }
  in
  let specs = Suites.int_2006 @ Suites.fp_2006 in
  let data =
    rows
      (fun spec ->
        progress "icache %s" spec.Spec.name;
        let _, big = pair spec ~input:1 ~width:4 in
        let _, small = pair ~cache:small_cache spec ~input:1 ~width:4 in
        let delta =
          100.0
          *. (Float.of_int (cycles small) /. Float.of_int (max 1 (cycles big))
             -. 1.0)
        in
        let shadow =
          let s = big.Runner.stats in
          if s.Stats.icache_misses = 0 then 0.0
          else
            100.0
            *. Float.of_int s.Stats.icache_misses_in_shadow
            /. Float.of_int s.Stats.icache_misses
        in
        ( delta,
          [ spec.Spec.name;
            Text.f2 delta;
            Text.f1 shadow;
            Text.f1 (Runner.piscs (bench spec))
          ] ))
      specs
  in
  let geo =
    Agg.geomean_speedup_pct (List.map (fun (d, _) -> d) data)
  in
  emit ~csv:"icache" ppf
    ~headers:
      [ "Benchmark"; "%slowdown 24KB I$"; "%I$ miss in shadow"; "PISCS" ]
    (List.map snd data @ [ [ "GEOMEAN"; Text.f2 geo; ""; "" ] ])

(* ------------------------------------------------------------------ dbb *)

let dbb ppf =
  heading ppf "DBB sizing (4): occupancy and entry-count sweep";
  let names = [ "h264ref"; "perlbench"; "mcf"; "wrf" ] in
  List.iter
    (fun (name, avg_occ, max_occ, full) ->
      Format.fprintf ppf
        "%-10s avg occupancy %.2f, max %d, full-stall cycles %d@." name
        avg_occ max_occ full)
    (rows
       (fun name ->
         let spec = Option.get (Suites.find name) in
         let s = (snd (pair spec ~input:1 ~width:4)).Runner.stats in
         ( name,
           Stats.dbb_avg_occupancy s,
           s.Stats.dbb_max_occupancy,
           s.Stats.dbb_full_stalls ))
       names);
  Format.fprintf ppf "@.Entry-count sweep (h264ref, 4-wide):@.";
  List.iter
    (fun (entries, spd, full) ->
      Format.fprintf ppf
        "  %2d entries: speedup %+6.2f%%, full-stall cycles %d@." entries spd
        full)
    (rows
       (fun entries ->
         progress "dbb sweep %d entries" entries;
         let b = bench (Option.get (Suites.find "h264ref")) in
         let config =
           { (Config.make ~width:4 ()) with Config.dbb_entries = entries }
         in
         let base = simulate ~config (Runner.baseline b ~input:1) in
         let exp = simulate ~config (Runner.experimental b ~input:1) in
         (entries, speedup ~base ~exp, exp.Runner.stats.Stats.dbb_full_stalls))
       [ 1; 2; 4; 8; 16; 32 ])

(* ------------------------------------------------------------ ablations *)

let ablation_hoist ppf =
  heading ppf "Ablation: hoist-depth cap (4-wide, avg over REF inputs)";
  let names = [ "h264ref"; "perlbench"; "omnetpp"; "wrf" ] in
  let caps = [ 2; 4; 8; 16; 32 ] in
  (* Every (benchmark, cap) cell is an independent prepare+simulate: fan
     them all out, then fold back into one row per benchmark. *)
  let cells =
    rows
      (fun (name, cap) ->
        progress "abl-hoist %s cap=%d" name cap;
        let spec = Option.get (Suites.find name) in
        Text.f1 (avg_speedup (prepare ~max_hoist:cap spec) ~width:4))
      (List.concat_map
         (fun name -> List.map (fun cap -> (name, cap)) caps)
         names)
  in
  let ncaps = List.length caps in
  let data =
    List.mapi
      (fun i name -> name :: List.filteri (fun j _ -> j / ncaps = i) cells)
      names
  in
  emit ~csv:"abl_hoist" ppf
    ~headers:
      ("Benchmark" :: List.map (fun c -> Printf.sprintf "cap=%d" c) caps)
    data

let ablation_select ppf =
  heading ppf
    "Ablation: selection threshold (predictability - bias margin), SPEC \
     2006 Int geomean";
  let thresholds = [ 0.0; 0.02; 0.05; 0.10; 0.20 ] in
  let data =
    rows
      (fun th ->
        progress "abl-select threshold=%.2f" th;
        let speedups, pbcs =
          List.split
            (List.map
               (fun spec ->
                 let b = prepare ~threshold:th spec in
                 ( avg_speedup b ~width:4,
                   Vanguard.Select.pbc (Runner.selection b) ))
               Suites.int_2006)
        in
        [ Printf.sprintf "%.2f" th;
          Text.f2 (Agg.geomean_speedup_pct speedups);
          Text.f1 (Agg.mean pbcs)
        ])
      thresholds
  in
  emit ~csv:"abl_select" ppf
    ~headers:[ "threshold"; "geomean speedup%"; "mean PBC" ] data

(* The Figure 1 taxonomy, quantified: sweep the bias/predictability plane
   on a fixed kernel and compare the three strategies — plain branches,
   if-conversion (predication), and the decomposed-branch transformation.
   Expectation per the paper: predication wins where predictability is low,
   decomposition wins where predictability exceeds bias, and neither does
   much for highly biased branches (superblock territory). *)

let ablation_predication ppf =
  heading ppf
    "Ablation: predication vs decomposed branches across the      bias/predictability plane (4-wide)";
  let config = Config.four_wide in
  let cell ~rate ~pred =
    let spec =
      Spec.make
        ~name:(Printf.sprintf "plane-%.0f-%.0f" (rate *. 100.) (pred *. 100.))
        ~suite:Spec.Int_2006 ~seed:9000
        ~branch_classes:
          [ Spec.cls ~count:4 ~taken_rate:rate ~predictability:pred () ]
        ~loads_per_block:1.5 ~extra_alu:0 ~hoist_frac:0.85 ~cond_depth:2
        ~inner_n:128 ~reps:6 ~procs:1 ()
    in
    let program = Gen.generate ~input:1 spec in
    let side tag layout =
      Runner.image ~name:(Printf.sprintf "%s.i1.%s" spec.Spec.name tag) layout
    in
    let baseline =
      let p = Bv_ir.Program.copy program in
      Bv_sched.Sched.schedule_program p;
      side "base" (Bv_ir.Layout.program p)
    in
    (* all shape-valid forward hammocks, regardless of profile *)
    let image = Bv_ir.Layout.program (Bv_ir.Program.copy program) in
    let profile =
      Bv_profile.Profile.collect ~predictor:(Kind.create Kind.Tournament)
        image
    in
    let sel =
      Vanguard.Select.select ~threshold:(-1.0) ~min_executed:1 ~profile
        program
    in
    let candidates = sel.Vanguard.Select.candidates in
    let vanguard =
      side "exp"
        (Bv_ir.Layout.program
           (Vanguard.Transform.apply ~exit_live:Gen.live_at_exit ~candidates
              program)
             .Vanguard.Transform.program)
    in
    let null_sink = (program.Bv_ir.Program.mem_words - 1) * 8 in
    let predicated =
      side "pred"
        (Bv_ir.Layout.program
           (Vanguard.Predicate.apply ~null_sink ~candidates program)
             .Vanguard.Predicate.program)
    in
    let asserted =
      side "assert"
        (Bv_ir.Layout.program
           (Vanguard.Assertconv.apply ~exit_live:Gen.live_at_exit
              ~candidates:(List.map (fun c -> (c, rate >= 0.5)) candidates)
              program)
             .Vanguard.Assertconv.program)
    in
    let rbase = simulate ~config baseline in
    let stat img =
      let r = simulate ~config img in
      ( speedup ~base:rbase ~exp:r,
        100.0
        *. (Float.of_int r.Runner.stats.Stats.issued
            /. Float.of_int rbase.Runner.stats.Stats.issued
           -. 1.0) )
    in
    (stat predicated, stat vanguard, stat asserted)
  in
  let grid =
    List.concat_map
      (fun rate ->
        List.filter_map
          (fun pred ->
            if pred +. 0.001 < Float.max rate (1.0 -. rate) then None
            else Some (rate, pred))
          [ 0.55; 0.80; 0.97 ])
      [ 0.55; 0.70; 0.95 ]
  in
  let data =
    rows
      (fun (rate, pred) ->
        progress "abl-pred bias=%.2f pred=%.2f" rate pred;
        let (p, pi), (v, vi), (a, _) = cell ~rate ~pred in
        let winner =
          if Float.max (Float.max p v) a < 1.0 then "neither"
          else if p > v && p > a then "predication"
          else if a > v then "superblock"
          else "decomposition"
        in
        [ Printf.sprintf "%.2f" (Float.max rate (1.0 -. rate));
          Printf.sprintf "%.2f" pred;
          Text.f1 p;
          Text.f1 v;
          Text.f1 a;
          winner;
          Text.f1 pi;
          Text.f1 vi
        ])
      grid
  in
  emit ~csv:"abl_pred" ppf
    ~headers:
      [ "bias"; "predictability"; "predication%"; "decomposition%";
        "superblock%"; "winner"; "pred +issued%"; "decomp +issued%"
      ]
    data;
  Format.fprintf ppf
    "On raw cycles the in-order favours decomposition broadly (mispredict \
     cost is symmetric with the baseline), while superblock straightening \
     catches up only at high bias.@.The issued-instruction columns show the \
     efficiency split of 6.2: decomposition's wrong-path issue grows as \
     predictability falls,@.while predication's overhead is flat - the \
     paper's reason to reserve it for unpredictable hammocks.@."

(* Runahead interaction: the paper notes its machine employs neither
   Runahead nor iCFP (5.1). This extension asks how much of the
   decomposition's benefit survives when the hardware already prefetches
   under stalls: a prefetch-under-stall (runahead-lite) mode crossed with
   the transformation on the memory-bound benchmarks. *)

let runahead ppf =
  heading ppf
    "Extension: runahead-style prefetch-under-stall x decomposition      (4-wide, memory-bound benchmarks)";
  let names = [ "mcf"; "omnetpp"; "soplex"; "milc" ] in
  let data =
    rows
      (fun name ->
        progress "runahead %s" name;
        let b = bench (Option.get (Suites.find name)) in
        let run ~ra img =
          let config = { (Config.make ~width:4 ()) with Config.runahead = ra } in
          simulate ~config (img b ~input:1)
        in
        let base = run ~ra:false Runner.baseline in
        let pct exp = Text.f1 (speedup ~base ~exp) in
        [ name;
          pct (run ~ra:false Runner.experimental);
          pct (run ~ra:true Runner.baseline);
          pct (run ~ra:true Runner.experimental)
        ])
      names
  in
  emit ~csv:"runahead" ppf
    ~headers:
      [ "Benchmark"; "decompose%"; "runahead%"; "runahead+decompose%" ]
    data;
  Format.fprintf ppf "%s@."
    (normalize
       "Speedups are relative to the plain baseline. Caveat: the synthetic \
        kernels' irregular accesses are arithmetic (LCG) chases, so their \
        addresses are computable ahead and runahead approaches an oracle \
        prefetcher here - treat its column as an upper bound. The stable \
        finding is the interaction: under strong prefetching the \
        decomposition's remaining edge is the non-memory part of its win \
        (covering the resolution stall itself), consistent with the paper \
        citing Runahead/iCFP as orthogonal techniques.")

(* -------------------------------------------------------------- registry *)

let all =
  [ ("table1", "machine configuration (Table 1)", table1);
    ("fig2", "predictability vs bias, SPEC 2006 Int (Figure 2)", fig2);
    ("fig3", "predictability vs bias, SPEC 2006 FP (Figure 3)", fig3);
    ("table2", "per-benchmark metrics (Table 2)", table2);
    ("fig8", "SPEC 2006 Int speedup, avg inputs (Figure 8)", fig8);
    ("fig9", "SPEC 2006 Int speedup, best input (Figure 9)", fig9);
    ("fig10", "SPEC 2000 Int speedup, avg inputs (Figure 10)", fig10);
    ("fig11", "SPEC 2000 Int speedup, best input (Figure 11)", fig11);
    ("fig12", "SPEC 2006 FP speedup, avg inputs (Figure 12)", fig12);
    ("fig13", "SPEC 2000 FP speedup, avg inputs (Figure 13)", fig13);
    ("fig14", "issued-instruction increase (Figure 14)", fig14);
    ("sens", "branch predictor sensitivity (5.3)", sensitivity);
    ("icache", "I$ capacity and code size (6.1)", icache);
    ("dbb", "DBB occupancy and sizing (4)", dbb);
    ("abl-hoist", "ablation: hoist cap", ablation_hoist);
    ("abl-select", "ablation: selection threshold", ablation_select);
    ( "abl-pred",
      "ablation: predication vs superblock vs decomposition (Figure 1)",
      ablation_predication );
    ("runahead", "extension: prefetch-under-stall x decomposition", runahead)
  ]

let find id =
  List.find_map (fun (i, _, f) -> if String.equal i id then Some f else None)
    all
