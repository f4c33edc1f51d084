open Bv_bpred
open Bv_cache
open Bv_exec
open Bv_ir
open Bv_pipeline
open Bv_workloads

(* A laid-out program with the digest of what the timing model reads
   from it and its interpreter reference, forced once whatever the
   number of configs it runs on. *)
type image =
  { name : string;
    layout : Layout.image;
    digest : string;
    reference : int Lazy.t
  }

type bench =
  { spec : Spec.t;
    profile : Bv_profile.Profile.t;
    selection : Vanguard.Select.t;
    transform : Vanguard.Transform.result;
    max_hoist : int option;
    baseline_static : int;
    experimental_static : int;
    images : (int, image * image) Hashtbl.t
  }

(* Read BV_SCALE once: every artifact-cache key and every scaled spec in
   the process must agree on the factor, even if the environment is
   mutated mid-run. A value that is not a finite positive number is an
   error, not full scale: a typo would otherwise run for minutes and
   report numbers at a scale nobody asked for. *)
let scale =
  let factor =
    lazy
      (match Sys.getenv_opt "BV_SCALE" with
      | None -> 1.0
      | Some s -> (
        match Float.of_string_opt (String.trim s) with
        | Some f when Float.is_finite f && f > 0.0 -> f
        | _ ->
          invalid_arg
            (Printf.sprintf "BV_SCALE must be a finite number > 0, got %S" s)))
  in
  fun () -> Lazy.force factor

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
      images = Hashtbl.create 8
    }
  in
  bench

(* The pure, closure-free payload of a prepared bench — what {!Sim}
   persists to the on-disk artifact cache. Images are rebuilt on
   demand after import. *)
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
    images = Hashtbl.create 8
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

let input_indices () = List.init Suites.ref_inputs (fun k -> k + 1)

(* ---------------------------------------------------------------- images *)

(* No sharing: equal content marshals to equal bytes however the
   image's values happen to be shared in memory. *)
let content_digest (img : Layout.image) =
  let p = img.Layout.program in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( img.Layout.code,
            img.Layout.targets,
            img.Layout.entry,
            p.Program.segments,
            p.Program.mem_words )
          [ Marshal.No_sharing ]))

let image ~name layout =
  { name;
    layout;
    digest = content_digest layout;
    reference = lazy (Interp.arch_digest (Interp.run layout))
  }

let name img = img.name
let digest img = img.digest

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
    let side tag img =
      image ~name:(Printf.sprintf "%s.i%d.%s" b.spec.Spec.name input tag) img
    in
    let pair = (side "base" base, side "exp" exp) in
    Hashtbl.replace b.images input pair;
    pair

let baseline b ~input = fst (images b ~input)
let experimental b ~input = snd (images b ~input)
let baseline_program b ~input = (baseline b ~input).layout
let experimental_program b ~input = (experimental b ~input).layout

(* ----------------------------------------------------------- timing runs *)

type run =
  { config : Config.t;
    stats : Stats.t;
    acct : Acct.t;
    l1i : Sa_cache.stats;
    l1d : Sa_cache.stats;
    l2 : Sa_cache.stats;
    l3 : Sa_cache.stats;
    stores_retired : int
  }

(* The sampler reads the accounting of the run it observes, so the
   observer owns that run's [Acct.t]. *)
type observer =
  { o_image : Layout.image;
    o_acct : Acct.t;
    o_samples : Sampler.t;
    o_on_event : (Machine.event -> unit) option
  }

let observer ?interval ?on_event img =
  let acct = Acct.create img.layout.Layout.code in
  { o_image = img.layout;
    o_acct = acct;
    o_samples = Sampler.create ?interval ~acct ();
    o_on_event = on_event
  }

let samples o = o.o_samples

let simulate ?observer ~config img =
  let acct =
    match observer with
    | None -> Acct.create img.layout.Layout.code
    | Some o when o.o_image == img.layout -> o.o_acct
    | Some _ -> invalid_arg "Runner.simulate: observer made for another image"
  in
  let r =
    Machine.run
      ?on_event:(Option.bind observer (fun o -> o.o_on_event))
      ?on_cycle:(Option.map (fun o -> Sampler.observe o.o_samples) observer)
      ~acct ~config img.layout
  in
  Option.iter (fun o -> Sampler.finish o.o_samples) observer;
  if not r.Machine.finished then
    failwith (Printf.sprintf "%s: simulation hit a run limit" img.name);
  if r.Machine.arch_digest <> Lazy.force img.reference then
    failwith
      (Printf.sprintf "%s: timing model diverged from the interpreter"
         img.name);
  let h = r.Machine.hierarchy in
  { config;
    stats = r.Machine.stats;
    acct;
    l1i = Sa_cache.stats (Hierarchy.l1i h);
    l1d = Sa_cache.stats (Hierarchy.l1d h);
    l2 = Sa_cache.stats (Hierarchy.l2 h);
    l3 = Sa_cache.stats (Hierarchy.l3 h);
    stores_retired = r.Machine.stores_retired
  }

let speedup_pct ~base ~exp =
  100.0 *. ((Float.of_int base /. Float.of_int (max 1 exp)) -. 1.0)

let merged_acct = function
  | [] -> invalid_arg "Runner.merged_acct: no runs"
  | r :: rest -> List.fold_left (fun a r -> Acct.merge a r.acct) r.acct rest

let run_to_json r =
  let open Bv_obs.Json in
  Obj
    [ ("config", String (Config.name r.config));
      ("width", Int r.config.Config.width);
      ("predictor", String (Kind.name r.config.Config.predictor));
      ("finished", Bool true);
      ("stores_retired", Int r.stores_retired);
      ("stats", Stats.to_json r.stats);
      ( "cache",
        Hierarchy.stats_to_json r.config.Config.cache ~l1d:r.l1d ~l1i:r.l1i
          ~l2:r.l2 ~l3:r.l3 )
    ]

(* ---------------------------------------------------------------- advice *)

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
