type config =
  { l1d_bytes : int;
    l1d_ways : int;
    l1i_bytes : int;
    l1i_ways : int;
    l2_bytes : int;
    l2_ways : int;
    l3_bytes : int;
    l3_ways : int;
    line_bytes : int;
    l1_latency : int;
    l2_latency : int;
    l3_latency : int;
    mem_latency : int
  }

let default_config =
  { l1d_bytes = 32 * 1024;
    l1d_ways = 8;
    l1i_bytes = 32 * 1024;
    l1i_ways = 4;
    l2_bytes = 256 * 1024;
    l2_ways = 16;
    l3_bytes = 4 * 1024 * 1024;
    l3_ways = 32;
    line_bytes = 64;
    l1_latency = 4;
    l2_latency = 12;
    l3_latency = 25;
    mem_latency = 140
  }

type t =
  { cfg : config;
    l1d : Sa_cache.t;
    l1i : Sa_cache.t;
    l2 : Sa_cache.t;
    l3 : Sa_cache.t
  }

type level = L1 | L2 | L3 | Mem

let create ?(config = default_config) () =
  let c = config in
  { cfg = c;
    l1d =
      Sa_cache.create ~name:"L1-D" ~size_bytes:c.l1d_bytes ~ways:c.l1d_ways
        ~line_bytes:c.line_bytes;
    l1i =
      Sa_cache.create ~name:"L1-I" ~size_bytes:c.l1i_bytes ~ways:c.l1i_ways
        ~line_bytes:c.line_bytes;
    l2 =
      Sa_cache.create ~name:"L2" ~size_bytes:c.l2_bytes ~ways:c.l2_ways
        ~line_bytes:c.line_bytes;
    l3 =
      Sa_cache.create ~name:"L3" ~size_bytes:c.l3_bytes ~ways:c.l3_ways
        ~line_bytes:c.line_bytes
  }

let config t = t.cfg

(* Serial lookup below a missing L1: L2, then L3, then memory. Fills all
   levels on the way back (inclusive hierarchy). *)
let lower_levels t ~addr ~write =
  match Sa_cache.access t.l2 ~addr ~write with
  | `Hit -> (t.cfg.l2_latency, L2)
  | `Miss ->
    (match Sa_cache.access t.l3 ~addr ~write with
    | `Hit -> (t.cfg.l2_latency + t.cfg.l3_latency, L3)
    | `Miss ->
      (t.cfg.l2_latency + t.cfg.l3_latency + t.cfg.mem_latency, Mem))

let data_access t ~addr ~write =
  match Sa_cache.access t.l1d ~addr ~write with
  | `Hit -> (t.cfg.l1_latency, L1)
  | `Miss ->
    let below, level = lower_levels t ~addr ~write in
    (t.cfg.l1_latency + below, level)

let inst_access t ~addr =
  match Sa_cache.access t.l1i ~addr ~write:false with
  | `Hit -> (0, L1)
  | `Miss ->
    let below, level = lower_levels t ~addr ~write:false in
    (below, level)

(* Latency-only variants for the simulator hot path: identical cache
   side effects, no tuple allocation per access. *)
let lower_levels_latency t ~addr ~write =
  match Sa_cache.access t.l2 ~addr ~write with
  | `Hit -> t.cfg.l2_latency
  | `Miss ->
    (match Sa_cache.access t.l3 ~addr ~write with
    | `Hit -> t.cfg.l2_latency + t.cfg.l3_latency
    | `Miss -> t.cfg.l2_latency + t.cfg.l3_latency + t.cfg.mem_latency)

let data_access_latency t ~addr ~write =
  match Sa_cache.access t.l1d ~addr ~write with
  | `Hit -> t.cfg.l1_latency
  | `Miss -> t.cfg.l1_latency + lower_levels_latency t ~addr ~write

let inst_access_latency t ~addr =
  match Sa_cache.access t.l1i ~addr ~write:false with
  | `Hit -> 0
  | `Miss -> lower_levels_latency t ~addr ~write:false

let l1d t = t.l1d
let l1i t = t.l1i
let l2 t = t.l2
let l3 t = t.l3

let reset_stats t =
  Sa_cache.reset_stats t.l1d;
  Sa_cache.reset_stats t.l1i;
  Sa_cache.reset_stats t.l2;
  Sa_cache.reset_stats t.l3

let stats_to_json c ~l1d ~l1i ~l2 ~l3 =
  let open Bv_obs.Json in
  let level name size_bytes ways =
    Sa_cache.stats_to_json ~name ~size_bytes ~ways ~line_bytes:c.line_bytes
  in
  Obj
    [ ( "config",
        Obj
          [ ("line_bytes", Int c.line_bytes);
            ("l1_latency", Int c.l1_latency);
            ("l2_latency", Int c.l2_latency);
            ("l3_latency", Int c.l3_latency);
            ("mem_latency", Int c.mem_latency)
          ] );
      ("l1d", level "L1-D" c.l1d_bytes c.l1d_ways l1d);
      ("l1i", level "L1-I" c.l1i_bytes c.l1i_ways l1i);
      ("l2", level "L2" c.l2_bytes c.l2_ways l2);
      ("l3", level "L3" c.l3_bytes c.l3_ways l3)
    ]

let to_json t =
  stats_to_json t.cfg ~l1d:(Sa_cache.stats t.l1d) ~l1i:(Sa_cache.stats t.l1i)
    ~l2:(Sa_cache.stats t.l2) ~l3:(Sa_cache.stats t.l3)
