open Bv_bpred
open Bv_cache
open Bv_pipeline
open Bv_workloads

type t =
  { mutable jobs : int;
    cache_dir : string option;
    dag : Dag.t;
    lab : (string, Runner.bench) Hashtbl.t
  }

let create ?(jobs = 1) ?cache_dir () =
  { jobs = max 1 jobs;
    cache_dir;
    dag = Dag.create ?dir:cache_dir ();
    lab = Hashtbl.create 64
  }

let default =
  lazy
    (let cache_dir =
       match Sys.getenv_opt "BV_CACHE" with
       | Some "" | Some "0" | Some "none" -> None
       | Some dir -> Some dir
       | None -> Some ".bv-cache"
     in
     create ~jobs:(Pool.jobs_env ()) ?cache_dir ())

let the () = Lazy.force default

let jobs t = t.jobs
let set_jobs t jobs = t.jobs <- max 1 jobs
let cache_dir t = t.cache_dir
let counters t = Dag.counters t.dag
let counters_json t = Dag.counters_json t.dag

(* ---- pipeline nodes --------------------------------------------------- *)

(* The compile half of the pipeline: profile → select → transform, keyed
   by everything [Runner.prepare] depends on. The node's value is the
   pure {!Runner.artifact}; live benches (with their memo tables) are
   interned in [lab] under the node key, so every caller of an equally
   parameterised prepare shares one bench and its simulation memo. *)
let prepare_node ?(predictor = Kind.Tournament) ?(threshold = 0.05) ?max_hoist
    spec =
  Dag.node ~kind:"prepare" ~label:spec.Spec.name
    ~inputs:
      (spec, Kind.name predictor, threshold, max_hoist, Runner.scale ())
    (fun () ->
      Runner.export (Runner.prepare ~predictor ~threshold ?max_hoist spec))

let prepare ?predictor ?threshold ?max_hoist t spec =
  let n = prepare_node ?predictor ?threshold ?max_hoist spec in
  let k = Dag.key t.dag n in
  match Hashtbl.find_opt t.lab k with
  | Some b -> b
  | None ->
    let b = Runner.import (Dag.eval t.dag n) in
    Hashtbl.replace t.lab k b;
    b

let bench t spec = prepare t spec

(* ---- simulation ------------------------------------------------------- *)

let simulate ?predictor ?cache (_ : t) b ~input ~width =
  Runner.simulate ?predictor ?cache b ~input ~width

(* One paired timing run, persisted as its marshal-safe summary. The
   prepare node's key rides along as a dependency, so a pipeline change
   that invalidates the compile half invalidates exactly this cone. *)
let summary ?(predictor = Kind.Tournament) ?(cache = Hierarchy.default_config)
    t spec ~input ~width =
  let pn = prepare_node spec in
  let n =
    Dag.node ~kind:"sim"
      ~label:
        (Printf.sprintf "%s.i%d.w%d.%s" spec.Spec.name input width
           (Kind.name predictor))
      ~deps:[ Dag.key t.dag pn ]
      ~inputs:(input, width, Kind.name predictor, cache, Runner.scale ())
      (fun () ->
        Runner.summarize
          (Runner.simulate ~predictor ~cache (bench t spec) ~input ~width))
  in
  Dag.eval t.dag n

let avg_speedup ?predictor ?cache t spec ~width =
  Agg.mean
    (List.map
       (fun input ->
         (summary ?predictor ?cache t spec ~input ~width)
           .Runner.sum_speedup_pct)
       (Runner.input_indices ()))

let best_speedup ?predictor ?cache t spec ~width =
  Agg.max_or 0.0
    (List.map
       (fun input ->
         (summary ?predictor ?cache t spec ~input ~width)
           .Runner.sum_speedup_pct)
       (Runner.input_indices ()))

(* Sampled runs persist only the marshal-safe estimates; the params ride
   in the key so changing the sampling regime misses cleanly. *)
let sampled ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config)
    ?(params = Machine.default_sample_params) t spec ~input ~width =
  let pn = prepare_node spec in
  let n =
    Dag.node ~kind:"sample"
      ~label:
        (Printf.sprintf "%s.i%d.w%d.%s.p%d" spec.Spec.name input width
           (Kind.name predictor) params.Machine.sp_period)
      ~deps:[ Dag.key t.dag pn ]
      ~inputs:
        ( input,
          width,
          Kind.name predictor,
          cache,
          ( params.Machine.sp_period,
            params.Machine.sp_detail,
            params.Machine.sp_warmup ),
          Runner.scale () )
      (fun () ->
        Runner.summarize_sampled
          (Runner.simulate_sampled ~predictor ~cache ~params (bench t spec)
             ~input ~width))
  in
  Dag.eval t.dag n

(* Accounted runs profile-prepare with the same predictor they simulate
   with (the report pipeline's convention). *)
let accounted_node ~predictor ~cache t spec ~input ~width =
  let pn = prepare_node ~predictor spec in
  Dag.node ~kind:"account"
    ~label:
      (Printf.sprintf "%s.i%d.w%d.%s" spec.Spec.name input width
         (Kind.name predictor))
    ~deps:[ Dag.key t.dag pn ]
    ~inputs:(input, width, Kind.name predictor, cache, Runner.scale ())
    (fun () ->
      Runner.simulate_accounted ~predictor ~cache
        (prepare ~predictor t spec)
        ~input ~width)

let accounted ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config) t spec ~input ~width =
  Dag.eval t.dag (accounted_node ~predictor ~cache t spec ~input ~width)

let accounted_list ?(predictor = Kind.Tournament)
    ?(cache = Hierarchy.default_config) t spec ~inputs ~width =
  Dag.eval_list ~jobs:t.jobs t.dag
    (List.map
       (fun input -> accounted_node ~predictor ~cache t spec ~input ~width)
       inputs)

(* ---- fan-out ---------------------------------------------------------- *)

let dag_map t ~kind ?label f items =
  let nodes =
    List.map
      (fun item ->
        Dag.node ~kind
          ?label:(Option.map (fun l -> l item) label)
          ~inputs:(kind, item, Runner.scale ())
          (fun () -> f item))
      items
  in
  Dag.eval_list ~jobs:t.jobs t.dag nodes

let map t f items = Pool.map ~jobs:t.jobs f items
