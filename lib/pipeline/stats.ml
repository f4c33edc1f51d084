type t =
  { mutable cycles : int;
    mutable fetched : int;
    mutable issued : int;
    mutable squashed_issued : int;
    mutable squashed_fetched : int;
    mutable predicts_fetched : int;
    mutable branch_execs : int;
    mutable branch_mispredicts : int;
    mutable resolve_execs : int;
    mutable resolve_mispredicts : int;
    mutable ret_execs : int;
    mutable ret_mispredicts : int;
    mutable redirects : int;
    mutable loads_issued : int;
    mutable stores_issued : int;
    mutable head_stall_cycles : int;
    mutable operand_stall_cycles : int;
    mutable fu_stall_cycles : int;
    mutable mem_struct_stall_cycles : int;
    mutable frontend_empty_cycles : int;
    mutable dbb_full_stalls : int;
    mutable dbb_occupancy_sum : int;
    mutable dbb_samples : int;
    mutable dbb_max_occupancy : int;
    mutable icache_stall_cycles : int;
    mutable icache_misses : int;
    mutable runahead_prefetches : int;
    mutable icache_misses_in_shadow : int;
    (* Per-site tables: one dense slot per branch/resolve site id the
       image contains, [sites] holding the ids in ascending order. The
       hot recorders (called on every control-instruction issue) are
       plain array increments — no hashing, no growth. A site is
       "present" in the JSON when its counter is > 0. *)
    sites : int array;
    site_stalls : int array;
    site_wait_execs : int array;
    site_wait_cycles : int array
  }

let create ~sites =
  let sites =
    Array.of_list (List.sort_uniq Int.compare (Array.to_list sites))
  in
  let n = Array.length sites in
  { cycles = 0;
    fetched = 0;
    issued = 0;
    squashed_issued = 0;
    squashed_fetched = 0;
    predicts_fetched = 0;
    branch_execs = 0;
    branch_mispredicts = 0;
    resolve_execs = 0;
    resolve_mispredicts = 0;
    ret_execs = 0;
    ret_mispredicts = 0;
    redirects = 0;
    loads_issued = 0;
    stores_issued = 0;
    head_stall_cycles = 0;
    operand_stall_cycles = 0;
    fu_stall_cycles = 0;
    mem_struct_stall_cycles = 0;
    frontend_empty_cycles = 0;
    dbb_full_stalls = 0;
    dbb_occupancy_sum = 0;
    dbb_samples = 0;
    dbb_max_occupancy = 0;
    icache_stall_cycles = 0;
    icache_misses = 0;
    runahead_prefetches = 0;
    icache_misses_in_shadow = 0;
    sites;
    site_stalls = Array.make n 0;
    site_wait_execs = Array.make n 0;
    site_wait_cycles = Array.make n 0
  }

let retired t = t.issued - t.squashed_issued

let ipc t =
  if t.cycles = 0 then 0.0 else Float.of_int (retired t) /. Float.of_int t.cycles

let mispredicts t = t.branch_mispredicts + t.resolve_mispredicts

let mppki t =
  let r = retired t in
  if r = 0 then 0.0 else 1000.0 *. Float.of_int (mispredicts t) /. Float.of_int r

let dbb_avg_occupancy t =
  if t.dbb_samples = 0 then 0.0
  else Float.of_int t.dbb_occupancy_sum /. Float.of_int t.dbb_samples

(* Binary search over the sorted ids; -1 when the image has no such
   site. Off the hot path: the machine resolves each pc's slot once. *)
let slot t site =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let id = t.sites.(mid) in
      if id = site then mid
      else if id < site then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length t.sites)

let[@inline] add_site_stalls t ~slot ~n =
  t.site_stalls.(slot) <- t.site_stalls.(slot) + n

let[@inline] add_site_stall t ~slot = add_site_stalls t ~slot ~n:1

let[@inline] add_site_wait t ~slot ~cycles =
  t.site_wait_execs.(slot) <- t.site_wait_execs.(slot) + 1;
  t.site_wait_cycles.(slot) <- t.site_wait_cycles.(slot) + cycles

let slot_wait_avg t slot =
  if t.site_wait_execs.(slot) > 0 then
    Float.of_int t.site_wait_cycles.(slot)
    /. Float.of_int t.site_wait_execs.(slot)
  else 0.0

let site_stall_cycles t site =
  let k = slot t site in
  if k >= 0 then t.site_stalls.(k) else 0

let site_wait_avg t site =
  let k = slot t site in
  if k >= 0 then slot_wait_avg t k else 0.0

(* ---- field descriptors ------------------------------------------------ *)

(* Single source of truth for every scalar the model reports: [pp] and
   [to_json] are both derived from these lists, so a counter added here
   shows up in the text report and the JSON automatically, under the
   same name. List order is emission order (and therefore part of the
   JSON golden contract — append, don't reorder). *)
type field =
  | I of string * (t -> int)
  | F of string * (t -> float)

let scalar_fields =
  [ I ("cycles", fun t -> t.cycles);
    I ("fetched", fun t -> t.fetched);
    I ("issued", fun t -> t.issued);
    I ("retired", retired);
    I ("squashed_issued", fun t -> t.squashed_issued);
    I ("squashed_fetched", fun t -> t.squashed_fetched);
    I ("predicts_fetched", fun t -> t.predicts_fetched);
    I ("branch_execs", fun t -> t.branch_execs);
    I ("branch_mispredicts", fun t -> t.branch_mispredicts);
    I ("resolve_execs", fun t -> t.resolve_execs);
    I ("resolve_mispredicts", fun t -> t.resolve_mispredicts);
    I ("ret_execs", fun t -> t.ret_execs);
    I ("ret_mispredicts", fun t -> t.ret_mispredicts);
    I ("mispredicts", mispredicts);
    I ("redirects", fun t -> t.redirects);
    I ("loads_issued", fun t -> t.loads_issued);
    I ("stores_issued", fun t -> t.stores_issued);
    F ("ipc", ipc);
    F ("mppki", mppki)
  ]

let stall_fields =
  [ I ("head", fun t -> t.head_stall_cycles);
    I ("operand", fun t -> t.operand_stall_cycles);
    I ("fu", fun t -> t.fu_stall_cycles);
    I ("mem_struct", fun t -> t.mem_struct_stall_cycles);
    I ("frontend_empty", fun t -> t.frontend_empty_cycles);
    I ("icache", fun t -> t.icache_stall_cycles)
  ]

let icache_fields =
  [ I ("misses", fun t -> t.icache_misses);
    I ("misses_in_shadow", fun t -> t.icache_misses_in_shadow);
    I ("runahead_prefetches", fun t -> t.runahead_prefetches)
  ]

let dbb_fields =
  [ I ("full_stalls", fun t -> t.dbb_full_stalls);
    I ("occupancy_sum", fun t -> t.dbb_occupancy_sum);
    I ("samples", fun t -> t.dbb_samples);
    F ("avg_occupancy", dbb_avg_occupancy);
    I ("max_occupancy", fun t -> t.dbb_max_occupancy)
  ]

let pp ppf t =
  let pp_field ppf = function
    | I (name, get) -> Format.fprintf ppf "%s %d" name (get t)
    | F (name, get) -> Format.fprintf ppf "%s %.3f" name (get t)
  in
  let pp_fields =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
      pp_field
  in
  Format.fprintf ppf
    "@[<v>@[<hov 2>%a@]@,@[<hov 2>stalls: %a@]@,@[<hov 2>icache: %a@]@,\
     @[<hov 2>dbb: %a@]@]"
    pp_fields scalar_fields pp_fields stall_fields pp_fields icache_fields
    pp_fields dbb_fields

(* The JSON mirror of [pp]: every raw counter plus the derived rates, so
   machine consumers never have to re-derive or scrape text. Tables are
   sorted by site id for deterministic output. *)
let to_json ?acct ?sampled t =
  let open Bv_obs.Json in
  let field = function
    | I (name, get) -> (name, Int (get t))
    | F (name, get) -> (name, float (get t))
  in
  (* ascending slot = sorted by site id *)
  let site_stalls =
    List.concat
      (List.init (Array.length t.sites) (fun k ->
           if t.site_stalls.(k) > 0 then
             [ Obj
                 [ ("site", Int t.sites.(k));
                   ("stall_cycles", Int t.site_stalls.(k))
                 ]
             ]
           else []))
  in
  let site_waits =
    List.concat
      (List.init (Array.length t.sites) (fun k ->
           if t.site_wait_execs.(k) > 0 then
             [ Obj
                 [ ("site", Int t.sites.(k));
                   ("execs", Int t.site_wait_execs.(k));
                   ("backlog_cycles", Int t.site_wait_cycles.(k));
                   ("avg_backlog", float (slot_wait_avg t k))
                 ]
             ]
           else []))
  in
  Obj
    (("schema_version", Int Bv_obs.Json.schema_version)
     :: List.map field scalar_fields
    @ [ ("stalls", Obj (List.map field stall_fields));
        ("icache", Obj (List.map field icache_fields));
        ("dbb", Obj (List.map field dbb_fields));
        ("site_stalls", List site_stalls);
        ("site_waits", List site_waits)
      ]
    @ (match acct with
      | None -> []
      | Some a ->
        [ ("cpi_stack", Acct.cpi_stack_json a);
          ("top_branches", Acct.top_branches_json a)
        ])
    @
    (* interval-sampled runs: extrapolated metrics with 95% CIs *)
    match sampled with
    | None -> []
    | Some e -> [ ("sampled", Smarts.to_json e) ])
