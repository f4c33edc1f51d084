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
   pure {!Runner.artifact}; live benches (with their images) are
   interned in [lab] under the node key, so every caller of an equally
   parameterised prepare shares one bench and builds each image once.
   Every call evaluates the node (a memo hit after the first), so the
   session's counters do not depend on how [map] spreads items over
   workers. *)
let prepare_node ?(predictor = Kind.Tournament) ?(threshold = 0.05) ?max_hoist
    spec =
  Dag.node ~kind:"prepare" ~label:spec.Spec.name
    ~inputs:
      (spec, Kind.name predictor, threshold, max_hoist, Runner.scale ())
    (fun () ->
      Runner.export (Runner.prepare ~predictor ~threshold ?max_hoist spec))

let prepare ?predictor ?threshold ?max_hoist t spec =
  let n = prepare_node ?predictor ?threshold ?max_hoist spec in
  let artifact = Dag.eval t.dag n in
  let k = Dag.key t.dag n in
  match Hashtbl.find_opt t.lab k with
  | Some b -> b
  | None ->
    let b = Runner.import artifact in
    Hashtbl.replace t.lab k b;
    b

let bench t spec = prepare t spec

(* ---- simulation ------------------------------------------------------- *)

(* Every Config.t field as a sim label shows it, e.g. [dbb=4]; a flag
   that is on shows as its bare name. *)
let config_fields =
  let int name get = (name, fun c -> string_of_int (get c)) in
  let size bytes =
    if bytes mod (1 lsl 20) = 0 then Printf.sprintf "%dM" (bytes lsr 20)
    else Printf.sprintf "%dK" (bytes lsr 10)
  in
  let level name bytes ways =
    ( name,
      fun (c : Config.t) ->
        Printf.sprintf "%s/%dw" (size (bytes c.cache)) (ways c.cache) )
  in
  let cache name get = int name (fun (c : Config.t) -> get c.cache) in
  Config.
    [ int "fb" (fun c -> c.fetch_buffer);
      int "stages" (fun c -> c.front_stages);
      int "int" (fun c -> c.int_units);
      int "fp" (fun c -> c.fp_units);
      int "mem" (fun c -> c.mem_units);
      int "br" (fun c -> c.branch_units);
      int "alu" (fun c -> c.alu_latency);
      int "mul" (fun c -> c.mul_latency);
      int "fpu" (fun c -> c.fpu_latency);
      int "bubble" (fun c -> c.taken_bubble);
      int "btbmiss" (fun c -> c.btb_miss_penalty);
      ("runahead", fun c -> string_of_bool c.runahead);
      int "dbb" (fun c -> c.dbb_entries);
      int "mshrs" (fun c -> c.mshrs);
      int "sb" (fun c -> c.store_buffer);
      level "l1d" (fun h -> h.Hierarchy.l1d_bytes) (fun h -> h.l1d_ways);
      level "l1i" (fun h -> h.Hierarchy.l1i_bytes) (fun h -> h.l1i_ways);
      level "l2" (fun h -> h.Hierarchy.l2_bytes) (fun h -> h.l2_ways);
      level "l3" (fun h -> h.Hierarchy.l3_bytes) (fun h -> h.l3_ways);
      cache "line" (fun h -> h.Hierarchy.line_bytes);
      cache "l1lat" (fun h -> h.Hierarchy.l1_latency);
      cache "l2lat" (fun h -> h.Hierarchy.l2_latency);
      cache "l3lat" (fun h -> h.Hierarchy.l3_latency);
      cache "memlat" (fun h -> h.Hierarchy.mem_latency);
      int "btb" (fun c -> c.btb_entries);
      int "ras" (fun c -> c.ras_entries)
    ]

(* [<image>.<digest prefix>.<width>-wide/<predictor>] plus every field
   that differs from that width's and predictor's defaults, so one label
   names one key. *)
let sim_label (config : Config.t) img =
  let default =
    Config.make ~predictor:config.predictor ~width:config.width ()
  in
  String.concat "."
    ([ Runner.name img; String.sub (Runner.digest img) 0 8; Config.name config ]
    @ List.filter_map
        (fun (name, show) ->
          let v = show config in
          if v = show default then None
          else if v = "true" then Some name
          else Some (name ^ "=" ^ v))
        config_fields)

let simulate t ~config img =
  Dag.eval t.dag
    (Dag.node ~kind:"sim" ~label:(sim_label config img)
       ~inputs:(Runner.digest img, config)
       (fun () -> Runner.simulate ~config img))

let pair ?predictor ?cache t b ~input ~width =
  let config = Config.make ?predictor ?cache ~width () in
  ( simulate t ~config (Runner.baseline b ~input),
    simulate t ~config (Runner.experimental b ~input) )

let speedups ?predictor ?cache t b ~width =
  List.map
    (fun input ->
      let base, exp = pair ?predictor ?cache t b ~input ~width in
      Runner.speedup_pct ~base:base.Runner.stats.Stats.cycles
        ~exp:exp.Runner.stats.Stats.cycles)
    (Runner.input_indices ())

let avg_speedup ?predictor ?cache t b ~width =
  Agg.mean (speedups ?predictor ?cache t b ~width)

let best_speedup ?predictor ?cache t b ~width =
  Agg.max_or 0.0 (speedups ?predictor ?cache t b ~width)

(* ---- advice, validated ------------------------------------------------ *)

type advice_checked =
  { ac_advice : Bv_analysis.Advisor.t;
    ac_validation : Bv_analysis.Advisor.validation;
    ac_inputs : int;
    ac_max_outstanding : int
  }

let advise_validate ?predictor ?cache ?config ?interproc ?(inputs = [ 1 ]) t
    b ~width =
  let advice = Runner.advise ?config ?interproc b in
  let machine = Config.make ?predictor ?cache ~width () in
  let base =
    Runner.merged_acct
      (List.map
         (fun input -> simulate t ~config:machine (Runner.baseline b ~input))
         inputs)
  in
  (* Measured cost per site: the baseline run's recovery cycles — what a
     mispredicting branch actually stalls the front end for, the quantity
     the static cycles-saved ranking claims to predict. *)
  let measured =
    List.map
      (fun sa -> (sa.Acct.sa_site, Float.of_int sa.Acct.sa_recovery))
      (Acct.by_site base)
  in
  { ac_advice = advice;
    ac_validation = Bv_analysis.Advisor.validate ~measured advice;
    ac_inputs = List.length inputs;
    ac_max_outstanding =
      List.fold_left
        (fun acc p -> max acc (Bv_analysis.Speculation.max_outstanding p))
        0 (Runner.transform b).Vanguard.Transform.program.Bv_ir.Program.procs
  }

(* ---- fan-out ---------------------------------------------------------- *)

let map t f items =
  let parent = Unix.getpid () in
  (* the nodes [f item] evaluated, sent back only from a forked worker:
     in-process they are counted already *)
  let counted item =
    let c0 = Dag.counters t.dag in
    let v = f item in
    let c = Dag.counters t.dag in
    ( v,
      if Unix.getpid () = parent then None
      else
        Some
          { Dag.hits = c.Dag.hits - c0.Dag.hits;
            misses = c.Dag.misses - c0.Dag.misses;
            stolen = c.Dag.stolen - c0.Dag.stolen
          } )
  in
  List.map
    (fun (v, c) ->
      Option.iter (Dag.add_counters t.dag) c;
      v)
    (Pool.map ~jobs:t.jobs counted items)
