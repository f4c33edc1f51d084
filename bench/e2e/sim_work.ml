(* The sim-* workloads: four benchmarks, baseline and decomposed, each
   simulated in the timing model's three modes — detailed (default
   dispatch), accounted (cycle accounting on) and SMARTS-sampled. *)

open Bv_ir
open Bv_pipeline
open Bv_workloads

type params = { benches : string list; config : Config.t }

let branchy =
  { benches = [ "perlbench"; "gobmk"; "sjeng"; "h264ref" ];
    config = Config.make ~predictor:Bv_bpred.Kind.Tage ~width:4 ()
  }

let memory =
  { benches = [ "mcf"; "omnetpp"; "lbm"; "soplex" ]; config = Config.four_wide }

let runahead =
  { memory with
    config =
      { (Config.make ~predictor:Bv_bpred.Kind.Tage ~width:8 ()) with
        Config.runahead = true
      }
  }

(* One simulated image, with the deterministic outputs of its latest runs
   kept for the layer metrics. *)
type image =
  { label : string;
    bench : string;
    decomposed : bool;
    image : Layout.image;
    digest : int;
    sites : int;
    mutable detailed : Machine.result option;
    mutable words : float * float;  (** minor, major words of that run *)
    mutable acct : Acct.t option;
    mutable estimate : Smarts.estimate option
  }

(* A benchmark's input for [--seed]: seed k shifts the generator seed by
   k * 1000, and a quarter of the calibrated outer repetitions keeps a
   round to 1-3 s, so a run holds enough rounds for every op's best time
   to settle. *)
let scaled ~seed spec =
  { spec with
    Spec.seed = spec.Spec.seed + (1000 * seed);
    reps = max 2 (Float.to_int (Float.round (Float.of_int spec.Spec.reps /. 4.0)))
  }

let spec_named name =
  match Suites.find name with
  | Some spec -> spec
  | None -> failwith ("unknown benchmark " ^ name)

(* Generate → schedule → profile (TRAIN) → select → transform the REF
   input, then take the interpreter's digest of both images: the path
   every simulation in the repository starts from. *)
let prepare ~seed name =
  let spec = scaled ~seed (spec_named name) in
  let gen input = Obs.span "workloads.gen" (fun () -> Gen.generate ~input spec) in
  let baseline p =
    Obs.span "sched.schedule" (fun () ->
        let p = Program.copy p in
        Bv_sched.Sched.schedule_program p;
        Layout.program p)
  in
  let train = gen 0 in
  let train_image = baseline train in
  let profile =
    Obs.span "profile.collect" (fun () ->
        Bv_profile.Profile.collect
          ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
          train_image)
  in
  let selection =
    Obs.span "core.select" (fun () -> Vanguard.Select.select ~profile train)
  in
  let program = gen 1 in
  let transformed =
    Obs.span "core.transform" (fun () ->
        Vanguard.Transform.apply ~exit_live:Gen.live_at_exit
          ~candidates:selection.Vanguard.Select.candidates program)
  in
  let make ~decomposed ~sites image =
    { label = name ^ (if decomposed then ":decomposed" else ":baseline");
      bench = name;
      decomposed;
      image;
      digest =
        Obs.span "exec.interp" (fun () ->
            Bv_exec.Interp.arch_digest (Bv_exec.Interp.run image));
      sites;
      detailed = None;
      words = (0.0, 0.0);
      acct = None;
      estimate = None
    }
  in
  [ make ~decomposed:false ~sites:0 (baseline program);
    make ~decomposed:true
      ~sites:(List.length transformed.Vanguard.Transform.reports)
      (Obs.span "sched.schedule" (fun () ->
           Layout.program transformed.Vanguard.Transform.program))
  ]

let arch_ok img (r : Machine.result) =
  Obs.check r.Machine.finished "%s: run hit a limit" img.label
  && Obs.check (r.Machine.arch_digest = img.digest)
       "%s: architectural digest differs from the interpreter's" img.label

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let detailed config img =
  let m0, j0 = gc_words () in
  let r =
    Obs.span "pipeline.detailed" (fun () -> Machine.run ~config img.image)
  in
  let m1, j1 = gc_words () in
  img.detailed <- Some r;
  img.words <- (m1 -. m0, j1 -. j0);
  r

let accounted config img =
  let acct = Acct.create img.image.Layout.code in
  let r =
    Obs.span "pipeline.acct" (fun () -> Machine.run ~acct ~config img.image)
  in
  img.acct <- Some acct;
  r

let sampled config img =
  let s =
    Obs.span "pipeline.sampled" (fun () -> Machine.run_sampled ~config img.image)
  in
  img.estimate <- Some s.Machine.sam_estimate;
  s.Machine.sam_result

(* One image in all three modes. The accounted run forces interpreted
   dispatch, so agreeing with the detailed run on every counter (the
   stats record compared structurally: all that Stats.to_json prints)
   checks compiled = interpreted as well. *)
let run_image config ~reverse img =
  let det = ref None and acc = ref None in
  let identity () =
    match (!det, !acc) with
    | Some (d : Stats.t), Some a ->
      Obs.check (d = a) "%s: accounted stats differ from the detailed run's"
        img.label
    | _ -> true
  in
  let modes =
    [ ("detailed", fun () ->
        let r = detailed config img in
        det := Some r.Machine.stats;
        arch_ok img r && identity ());
      ("acct", fun () ->
        let r = accounted config img in
        acc := Some r.Machine.stats;
        arch_ok img r && identity ());
      ("sampled", fun () -> arch_ok img (sampled config img))
    ]
  in
  List.iter
    (fun (mode, f) -> Obs.op ~key:(img.label ^ ":" ^ mode) f)
    (if reverse then List.rev modes else modes)

(* ------------------------------------------------------------ layer metrics *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let layers (p : params) images =
  let res img = Option.get img.detailed in
  let st img = (res img).Machine.stats in
  let cycles img = Float.of_int (st img).Stats.cycles in
  let total_cycles = sum cycles images in
  let retired = sum (fun i -> Float.of_int (Stats.retired (st i))) images in
  let stat f = sum (fun i -> Float.of_int (f (st i))) images in
  let mcps span =
    let s = Obs.layer_seconds span in
    if s > 0.0 then total_cycles /. 1e6 /. s else 0.0
  in
  let pki n = 1000.0 *. n /. retired in
  let pct a b = if b > 0.0 then 100.0 *. a /. b else 0.0 in
  let cache_misses level =
    sum
      (fun i ->
        Float.of_int
          (Bv_cache.Sa_cache.stats (level (res i).Machine.hierarchy))
            .Bv_cache.Sa_cache.misses)
      images
  in
  let estimates = List.map (fun i -> (i, Option.get i.estimate)) images in
  let acct_total component =
    sum
      (fun i -> Float.of_int (Option.get i.acct).Acct.components.(component))
      images
  in
  let components = List.init Acct.n_components acct_total in
  let all_components = List.fold_left ( +. ) 0.0 components in
  let detailed_mcps = mcps "pipeline.detailed" in
  let interpreted_mcps = mcps "pipeline.interpreted" in
  let speedups =
    List.map
      (fun bench ->
        let side d =
          cycles (List.find (fun i -> i.bench = bench && i.decomposed = d) images)
        in
        100.0 *. ((side false /. side true) -. 1.0))
      p.benches
  in
  [ ("pipeline.detailed_mcps", detailed_mcps);
    ("pipeline.acct_mcps", mcps "pipeline.acct");
    ("pipeline.sampled_mcps", mcps "pipeline.sampled");
    ("pipeline.interpreted_mcps", interpreted_mcps);
    ( "pipeline.compile_gain_pct",
      if interpreted_mcps > 0.0 then
        100.0 *. ((detailed_mcps /. interpreted_mcps) -. 1.0)
      else 0.0 );
    ("pipeline.minor_words_per_cycle", sum (fun i -> fst i.words) images /. total_cycles);
    ("pipeline.major_words_per_cycle", sum (fun i -> snd i.words) images /. total_cycles);
    ( "pipeline.sampled_detail_pct",
      pct
        (sum (fun (_, e) -> Float.of_int e.Smarts.est_detailed_instrs) estimates)
        (sum (fun (_, e) -> Float.of_int e.Smarts.est_total_instrs) estimates) );
    ( "pipeline.sampled_cpi_err_pct",
      List.fold_left
        (fun a (i, e) ->
          Float.max a (100.0 *. Float.abs (e.Smarts.est_cycles -. cycles i) /. cycles i))
        0.0 estimates );
    ("pipeline.speedup_pct", Bv_harness.Agg.geomean_speedup_pct speedups);
    ("pipeline.ipc", retired /. total_cycles);
    ( "pipeline.squashed_issue_pct",
      pct (stat (fun s -> s.Stats.squashed_issued)) (stat (fun s -> s.Stats.issued)) );
    ( "pipeline.dbb_avg_occupancy",
      stat (fun s -> s.Stats.dbb_occupancy_sum)
      /. Float.max 1.0 (stat (fun s -> s.Stats.dbb_samples)) );
    ("pipeline.dbb_full_stalls", stat (fun s -> s.Stats.dbb_full_stalls));
    ("pipeline.runahead_prefetches_pki", pki (stat (fun s -> s.Stats.runahead_prefetches)));
    ("bpred.mpki", pki (stat Stats.mispredicts));
    ("cache.l1d_mpki", pki (cache_misses Bv_cache.Hierarchy.l1d));
    ("cache.l1i_mpki", pki (cache_misses Bv_cache.Hierarchy.l1i));
    ("cache.l2_mpki", pki (cache_misses Bv_cache.Hierarchy.l2));
    ("cache.l3_mpki", pki (cache_misses Bv_cache.Hierarchy.l3));
    ("core.sites_transformed", Float.of_int (List.fold_left (fun a i -> a + i.sites) 0 images))
  ]
  @ List.mapi
      (fun c cycles ->
        ("acct." ^ Acct.component_names.(c) ^ "_pct", pct cycles all_components))
      components

let workload ~seed (p : params) =
  let images = ref [] in
  let interpreted img =
    let r =
      Obs.span "pipeline.interpreted" (fun () ->
          Machine.run
            ~on_cycle:(fun ~cycle:_ ~stats:_ ~dbb_occupancy:_ -> ())
            ~config:p.config img.image)
    in
    arch_ok img r
  in
  { Obs.sensitivity = 2.0;
    setup =
      (fun () ->
        images := List.concat_map (prepare ~seed) p.benches);
    round = (fun r -> List.iter (run_image p.config ~reverse:(r mod 2 = 1)) !images);
    probe =
      (fun () ->
        List.iter
          (fun img ->
            Obs.op (fun () ->
                let r = detailed p.config img in
                arch_ok img r);
            Obs.op (fun () -> interpreted img))
          !images);
    layers = (fun () -> layers p !images)
  }
