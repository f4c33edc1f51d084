open Bv_bpred
open Bv_cache
open Bv_exec
open Bv_ir
open Bv_pipeline
open Bv_workloads

type sim_pair =
  { base : Machine.result;
    exp : Machine.result;
    speedup_pct : float
  }

type bench =
  { spec : Spec.t;
    profile : Bv_profile.Profile.t;
    selection : Vanguard.Select.t;
    transform : Vanguard.Transform.result;
    max_hoist : int option;
    baseline_static : int;
    experimental_static : int;
    images : (int, Layout.image * Layout.image) Hashtbl.t;
    digests : (int, int * int) Hashtbl.t;
    memo : (string, sim_pair) Hashtbl.t
  }

(* Read BV_SCALE once: every artifact-cache key and every scaled spec in
   the process must agree on the factor, even if the environment is
   mutated mid-run. *)
let scale =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some s -> s
    | None ->
      let s =
        match Sys.getenv_opt "BV_SCALE" with
        | Some s -> ( try Float.of_string s with _ -> 1.0)
        | None -> 1.0
      in
      memo := Some s;
      s

let scaled_spec spec =
  let reps =
    max 2 (Float.to_int (Float.round (Float.of_int spec.Spec.reps *. scale ())))
  in
  { spec with Spec.reps }

(* Baseline compilation = block-local list scheduling of a copy. *)
let baseline_of program =
  let p = Program.copy program in
  Bv_sched.Sched.schedule_program p;
  p

let prepare ?(predictor = Kind.Tournament) ?(threshold = 0.05) ?max_hoist
    spec =
  let spec = scaled_spec spec in
  let train = Gen.generate ~input:0 spec in
  let train_image = Layout.program (baseline_of train) in
  let profile =
    Bv_profile.Profile.collect ~predictor:(Kind.create predictor) train_image
  in
  let selection = Vanguard.Select.select ~threshold ~profile train in
  let transform =
    Vanguard.Transform.apply ?max_hoist ~exit_live:Gen.live_at_exit
      ~candidates:selection.Vanguard.Select.candidates train
  in
  let bench =
    { spec;
      profile;
      selection;
      transform;
      max_hoist;
      baseline_static = Array.length train_image.Layout.code;
      experimental_static =
        Array.length (Layout.program transform.Vanguard.Transform.program)
          .Layout.code;
      images = Hashtbl.create 8;
      digests = Hashtbl.create 8;
      memo = Hashtbl.create 32
    }
  in
  bench

(* The pure, closure-free payload of a prepared bench — what {!Sim}
   persists to the on-disk artifact cache. The memo hashtables are
   rebuilt empty on import. *)
type artifact =
  { a_spec : Spec.t;
    a_profile : Bv_profile.Profile.t;
    a_selection : Vanguard.Select.t;
    a_transform : Vanguard.Transform.result;
    a_max_hoist : int option;
    a_baseline_static : int;
    a_experimental_static : int
  }

let export b =
  { a_spec = b.spec;
    a_profile = b.profile;
    a_selection = b.selection;
    a_transform = b.transform;
    a_max_hoist = b.max_hoist;
    a_baseline_static = b.baseline_static;
    a_experimental_static = b.experimental_static
  }

let import a =
  { spec = a.a_spec;
    profile = a.a_profile;
    selection = a.a_selection;
    transform = a.a_transform;
    max_hoist = a.a_max_hoist;
    baseline_static = a.a_baseline_static;
    experimental_static = a.a_experimental_static;
    images = Hashtbl.create 8;
    digests = Hashtbl.create 8;
    memo = Hashtbl.create 32
  }

let spec b = b.spec
let profile b = b.profile
let selection b = b.selection
let transform b = b.transform
let baseline_static b = b.baseline_static
let experimental_static b = b.experimental_static

let piscs b =
  100.0
  *. Float.of_int (b.experimental_static - b.baseline_static)
  /. Float.of_int (max 1 b.baseline_static)

let images b ~input =
  match Hashtbl.find_opt b.images input with
  | Some pair -> pair
  | None ->
    let program = Gen.generate ~input b.spec in
    let base = Layout.program (baseline_of program) in
    let exp_result =
      Vanguard.Transform.apply ?max_hoist:b.max_hoist
        ~exit_live:Gen.live_at_exit
        ~candidates:b.selection.Vanguard.Select.candidates program
    in
    let exp = Layout.program exp_result.Vanguard.Transform.program in
    Hashtbl.replace b.images input (base, exp);
    (base, exp)

let baseline_program b ~input = fst (images b ~input)
let experimental_program b ~input = snd (images b ~input)

let reference_digests b ~input =
  match Hashtbl.find_opt b.digests input with
  | Some d -> d
  | None ->
    let base, exp = images b ~input in
    let d =
      ( Interp.arch_digest (Interp.run base),
        Interp.arch_digest (Interp.run exp) )
    in
    Hashtbl.replace b.digests input d;
    d

let cache_tag (c : Hierarchy.config) =
  Printf.sprintf "%d.%d.%d.%d.%d" c.Hierarchy.l1d_bytes c.Hierarchy.l1i_bytes
    c.Hierarchy.l2_bytes c.Hierarchy.l3_bytes c.Hierarchy.mem_latency

(* Percent speedup of a run taking [exp] cycles over one taking [base]. *)
let speedup_pct ~base ~exp =
  100.0 *. ((Float.of_int base /. Float.of_int (max 1 exp)) -. 1.0)

(* A timing run must halt and agree with the interpreter's digest. *)
let check_run b name want (got : Machine.result) =
  if not got.Machine.finished then
    failwith
      (Printf.sprintf "%s/%s: simulation hit a run limit" b.spec.Spec.name
         name);
  if got.Machine.arch_digest <> want then
    failwith
      (Printf.sprintf "%s/%s: timing model diverged from the interpreter"
         b.spec.Spec.name name)

let simulate ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config) b ~input ~width =
  let key =
    Printf.sprintf "i%d.w%d.%s.%s" input width (Kind.name predictor)
      (cache_tag cache)
  in
  match Hashtbl.find_opt b.memo key with
  | Some pair -> pair
  | None ->
    let base_img, exp_img = images b ~input in
    let dbase, dexp = reference_digests b ~input in
    let config = Config.make ~predictor ~cache ~width () in
    let base = Machine.run ~config base_img in
    let exp = Machine.run ~config exp_img in
    check_run b "baseline" dbase base;
    check_run b "experimental" dexp exp;
    let pair =
      { base;
        exp;
        speedup_pct =
          speedup_pct ~base:base.Machine.stats.Stats.cycles
            ~exp:exp.Machine.stats.Stats.cycles
      }
    in
    Hashtbl.replace b.memo key pair;
    pair

let input_indices () = List.init Suites.ref_inputs (fun k -> k + 1)

let avg_speedup ?predictor ?cache b ~width =
  Agg.mean
    (List.map
       (fun input -> (simulate ?predictor ?cache b ~input ~width).speedup_pct)
       (input_indices ()))

let best_speedup ?predictor ?cache b ~width =
  Agg.max_or 0.0
    (List.map
       (fun input -> (simulate ?predictor ?cache b ~input ~width).speedup_pct)
       (input_indices ()))

(* The marshal-safe essence of a paired run — what the experiment DAG
   persists for speedup/stat rows ({!Machine.result} itself drags the
   cache hierarchy and config along, so it never crosses the store). *)
type sim_summary =
  { sum_speedup_pct : float;
    sum_base : Stats.t;
    sum_exp : Stats.t
  }

let summarize pair =
  { sum_speedup_pct = pair.speedup_pct;
    sum_base = pair.base.Machine.stats;
    sum_exp = pair.exp.Machine.stats
  }

let pair_to_json pair =
  let open Bv_obs.Json in
  Obj
    [ ("speedup_pct", float pair.speedup_pct);
      ("baseline", Machine.result_to_json pair.base);
      ("experimental", Machine.result_to_json pair.exp)
    ]

type instrumented =
  { pair : sim_pair;
    base_samples : Sampler.t;
    exp_samples : Sampler.t;
    base_acct : Acct.t;
    exp_acct : Acct.t
  }

let simulate_instrumented ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config) ?sample_interval ?on_base_event
    ?on_exp_event b ~input ~width =
  let base_img, exp_img = images b ~input in
  let dbase, dexp = reference_digests b ~input in
  let config = Config.make ~predictor ~cache ~width () in
  let instrumented_run ?on_event img sampler acct =
    Machine.run ?on_event
      ~on_cycle:(fun ~cycle ~stats ~dbb_occupancy ->
        Sampler.observe sampler ~cycle ~stats ~dbb_occupancy)
      ~acct ~config img
  in
  let base_acct = Acct.create base_img.Layout.code in
  let exp_acct = Acct.create exp_img.Layout.code in
  let base_samples =
    Sampler.create ?interval:sample_interval ~acct:base_acct ()
  in
  let exp_samples =
    Sampler.create ?interval:sample_interval ~acct:exp_acct ()
  in
  let base =
    instrumented_run ?on_event:on_base_event base_img base_samples base_acct
  in
  let exp =
    instrumented_run ?on_event:on_exp_event exp_img exp_samples exp_acct
  in
  Sampler.finish base_samples;
  Sampler.finish exp_samples;
  check_run b "baseline" dbase base;
  check_run b "experimental" dexp exp;
  { pair =
      { base;
        exp;
        speedup_pct =
          speedup_pct ~base:base.Machine.stats.Stats.cycles
            ~exp:exp.Machine.stats.Stats.cycles
      };
    base_samples;
    exp_samples;
    base_acct;
    exp_acct
  }

(* The marshal-safe subset of an accounted run: what a fork-pool worker
   returns to the parent for cross-input aggregation ({!Acct.t} is flat
   int arrays plus the code, all plain data). *)
type accounted =
  { acc_base_cycles : int;
    acc_exp_cycles : int;
    acc_speedup_pct : float;
    acc_base : Acct.t;
    acc_exp : Acct.t
  }

let simulate_accounted ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config) b ~input ~width =
  let base_img, exp_img = images b ~input in
  let dbase, dexp = reference_digests b ~input in
  let config = Config.make ~predictor ~cache ~width () in
  let acc_base = Acct.create base_img.Layout.code in
  let acc_exp = Acct.create exp_img.Layout.code in
  let base = Machine.run ~acct:acc_base ~config base_img in
  let exp = Machine.run ~acct:acc_exp ~config exp_img in
  check_run b "baseline" dbase base;
  check_run b "experimental" dexp exp;
  let base_cycles = base.Machine.stats.Stats.cycles in
  let exp_cycles = exp.Machine.stats.Stats.cycles in
  { acc_base_cycles = base_cycles;
    acc_exp_cycles = exp_cycles;
    acc_speedup_pct = speedup_pct ~base:base_cycles ~exp:exp_cycles;
    acc_base;
    acc_exp
  }

let merge_accounted a b =
  let base = a.acc_base_cycles + b.acc_base_cycles in
  let exp = a.acc_exp_cycles + b.acc_exp_cycles in
  { acc_base_cycles = base;
    acc_exp_cycles = exp;
    acc_speedup_pct = speedup_pct ~base ~exp;
    acc_base = Acct.merge a.acc_base b.acc_base;
    acc_exp = Acct.merge a.acc_exp b.acc_exp
  }

(* ------------------------------------------------------------ sampled -- *)

type sampled_pair =
  { samp_base : Machine.sampled;
    samp_exp : Machine.sampled;
    samp_speedup_pct : float
  }

let simulate_sampled ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config) ?params b ~input ~width =
  let base_img, exp_img = images b ~input in
  let dbase, dexp = reference_digests b ~input in
  let config = Config.make ~predictor ~cache ~width () in
  let base = Machine.run_sampled ?params ~config base_img in
  let exp = Machine.run_sampled ?params ~config exp_img in
  (* Fast-forward is committed-semantics functional execution, so the
     architectural results must still match the interpreter exactly —
     only the timing is an estimate. *)
  let check name want (got : Machine.sampled) =
    let r = got.Machine.sam_result in
    if not r.Machine.finished then
      failwith
        (Printf.sprintf "%s/%s: sampled simulation hit a run limit"
           b.spec.Spec.name name);
    if r.Machine.arch_digest <> want then
      failwith
        (Printf.sprintf
           "%s/%s: sampled run diverged architecturally from the interpreter"
           b.spec.Spec.name name)
  in
  check "baseline" dbase base;
  check "experimental" dexp exp;
  let bc = base.Machine.sam_estimate.Smarts.est_cycles in
  let ec = exp.Machine.sam_estimate.Smarts.est_cycles in
  { samp_base = base;
    samp_exp = exp;
    samp_speedup_pct = 100.0 *. ((bc /. Float.max 1.0 ec) -. 1.0)
  }

(* The marshal-safe essence of a sampled pair: both extrapolated
   estimates (plain floats/ints/lists throughout) and the speedup they
   imply — what the DAG persists for sample nodes. *)
type sampled_summary =
  { ss_speedup_pct : float;
    ss_base : Smarts.estimate;
    ss_exp : Smarts.estimate
  }

let summarize_sampled s =
  { ss_speedup_pct = s.samp_speedup_pct;
    ss_base = s.samp_base.Machine.sam_estimate;
    ss_exp = s.samp_exp.Machine.sam_estimate
  }

(* ------------------------------------------------- advise & validate -- *)

let advise ?config ?(interproc = false) b =
  (* The TRAIN program the profile and selection were built from: the
     spec in the bench record is already scaled. *)
  let train = Gen.generate ~input:0 b.spec in
  let summaries =
    if interproc then Some (Bv_analysis.Summary.compute train) else None
  in
  let costs =
    Bv_analysis.Costmodel.analyze ?max_hoist:b.max_hoist
      ~exit_live:Gen.live_at_exit ?summaries train
  in
  Bv_analysis.Advisor.advise ?config ~profile:b.profile costs

type advice_checked =
  { ac_advice : Bv_analysis.Advisor.t;
    ac_validation : Bv_analysis.Advisor.validation;
    ac_inputs : int;
    ac_max_outstanding : int
  }

let max_outstanding_of program =
  List.fold_left
    (fun acc p -> max acc (Bv_analysis.Speculation.max_outstanding p))
    0 program.Program.procs

let advise_validate ?predictor ?cache ?config ?interproc ?inputs b ~width =
  let advice = advise ?config ?interproc b in
  let inputs = Option.value inputs ~default:[ 1 ] in
  let acc =
    match
      List.map
        (fun input -> simulate_accounted ?predictor ?cache b ~input ~width)
        inputs
    with
    | [] -> invalid_arg "Runner.advise_validate: no inputs"
    | first :: rest -> List.fold_left merge_accounted first rest
  in
  (* Measured cost per site: the baseline run's recovery cycles — what a
     mispredicting branch actually stalls the front end for, the quantity
     the static cycles-saved ranking claims to predict. *)
  let measured =
    List.map
      (fun sa -> (sa.Acct.sa_site, Float.of_int sa.Acct.sa_recovery))
      (Acct.by_site acc.acc_base)
  in
  { ac_advice = advice;
    ac_validation = Bv_analysis.Advisor.validate ~measured advice;
    ac_inputs = List.length inputs;
    ac_max_outstanding =
      max_outstanding_of b.transform.Vanguard.Transform.program
  }
