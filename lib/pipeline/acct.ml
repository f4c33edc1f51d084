open Bv_isa

(* Top-down cycle accounting: every simulated cycle is charged to exactly
   one component, so the stack sums to total cycles by construction (the
   conservation invariant [check] asserts). The per-cycle classifier
   itself lives in {!Machine_state.account_cycles}; this module is the
   accumulator — flat int arrays indexed by component / pc, mirroring the
   [static_info] layout so the instrumented path allocates nothing. *)

let n_components = 9

(* Component indices. Priority order of the classifier, not emission
   order: issue beats recovery beats back-end stalls beats front-end
   starvation. *)
let c_base = 0
let c_fetch_starve = 1
let c_icache = 2
let c_redirect = 3
let c_recovery = 4
let c_dbb = 5
let c_fu = 6
let c_mem_struct = 7
let c_memory = 8

let component_names =
  [| "base";
     "fetch_starve";
     "icache";
     "redirect";
     "recovery";
     "dbb";
     "fu";
     "mem_struct";
     "memory"
  |]

(* Resolution-latency histogram: log2 buckets, bucket [k] covering
   latencies in [2^k, 2^(k+1)) with the last bucket open-ended. *)
let lat_buckets = 16

type t =
  { components : int array;  (* cycles charged, indexed by component *)
    execs : int array;  (* control-instruction completions, by pc *)
    mispredicts : int array;
    recovery_cycles : int array;  (* recovery cycles charged to this pc *)
    lat_sum : int array;  (* summed fetch-to-completion latency *)
    lat_hist : int array;  (* pc * lat_buckets + bucket *)
    code : Instr.t array
  }

let create code =
  let n = Array.length code in
  { components = Array.make n_components 0;
    execs = Array.make n 0;
    mispredicts = Array.make n 0;
    recovery_cycles = Array.make n 0;
    lat_sum = Array.make n 0;
    lat_hist = Array.make (n * lat_buckets) 0;
    code
  }

let length t = Array.length t.execs

let[@inline] bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v > 1 && !b < lat_buckets - 1 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let[@inline] record_branch t ~pc ~mispredict ~latency =
  t.execs.(pc) <- t.execs.(pc) + 1;
  if mispredict then t.mispredicts.(pc) <- t.mispredicts.(pc) + 1;
  let lat = if latency < 0 then 0 else latency in
  t.lat_sum.(pc) <- t.lat_sum.(pc) + lat;
  let b = (pc * lat_buckets) + bucket_of lat in
  t.lat_hist.(b) <- t.lat_hist.(b) + 1

let[@inline] record_recovery t ~pc ~n =
  t.recovery_cycles.(pc) <- t.recovery_cycles.(pc) + n

let total t = Array.fold_left ( + ) 0 t.components

let check t ~cycles =
  let sum = total t in
  if sum <> cycles then
    invalid_arg
      (Printf.sprintf
         "Acct.check: conservation violated: components sum to %d, ran %d \
          cycles"
         sum cycles)

let merge a b =
  if length a <> length b then
    invalid_arg "Acct.merge: attribution tables cover different code";
  let add x y = Array.mapi (fun i v -> v + y.(i)) x in
  { components = add a.components b.components;
    execs = add a.execs b.execs;
    mispredicts = add a.mispredicts b.mispredicts;
    recovery_cycles = add a.recovery_cycles b.recovery_cycles;
    lat_sum = add a.lat_sum b.lat_sum;
    lat_hist = add a.lat_hist b.lat_hist;
    code = a.code
  }

let site_of instr =
  match instr with
  | Instr.Branch { id; _ } | Instr.Resolve { id; _ } -> id
  | _ -> -1

let kind_of instr =
  match instr with
  | Instr.Branch _ -> "branch"
  | Instr.Resolve _ -> "resolve"
  | Instr.Ret -> "ret"
  | _ -> "other"

type site_agg =
  { sa_site : int;
    sa_execs : int;
    sa_mispredicts : int;
    sa_recovery : int;
    sa_lat_sum : int
  }

let by_site t =
  (* one row per executed sited pc, ordered by site id, then adjacent
     rows of the same site summed — sized by the code, not by the ids *)
  let rows = ref [] in
  for pc = length t - 1 downto 0 do
    let site = site_of t.code.(pc) in
    if t.execs.(pc) > 0 && site >= 0 then
      rows :=
        { sa_site = site;
          sa_execs = t.execs.(pc);
          sa_mispredicts = t.mispredicts.(pc);
          sa_recovery = t.recovery_cycles.(pc);
          sa_lat_sum = t.lat_sum.(pc)
        }
        :: !rows
  done;
  List.stable_sort (fun a b -> Int.compare a.sa_site b.sa_site) !rows
  |> List.fold_left
       (fun acc r ->
         match acc with
         | p :: rest when p.sa_site = r.sa_site ->
           { p with
             sa_execs = p.sa_execs + r.sa_execs;
             sa_mispredicts = p.sa_mispredicts + r.sa_mispredicts;
             sa_recovery = p.sa_recovery + r.sa_recovery;
             sa_lat_sum = p.sa_lat_sum + r.sa_lat_sum
           }
           :: rest
         | _ -> r :: acc)
       []
  |> List.rev

(* ---- JSON ------------------------------------------------------------- *)

let cpi_stack_json t =
  let open Bv_obs.Json in
  Obj
    (("cycles", Int (total t))
    :: Array.to_list
         (Array.mapi (fun i n -> (n, Int t.components.(i))) component_names))

(* Branch pcs ranked by the recovery cycles they caused (the cost the
   transform is supposed to recover), then mispredicts, then executions. *)
let top_pcs t =
  let pcs = ref [] in
  for pc = length t - 1 downto 0 do
    if t.execs.(pc) > 0 then pcs := pc :: !pcs
  done;
  List.sort
    (fun a b ->
      let c = compare t.recovery_cycles.(b) t.recovery_cycles.(a) in
      if c <> 0 then c
      else
        let c = compare t.mispredicts.(b) t.mispredicts.(a) in
        if c <> 0 then c
        else
          let c = compare t.execs.(b) t.execs.(a) in
          if c <> 0 then c else compare a b)
    !pcs

let hist_json t pc =
  (* trim trailing empty buckets so the common short-latency case stays
     compact *)
  let last = ref (-1) in
  for b = 0 to lat_buckets - 1 do
    if t.lat_hist.((pc * lat_buckets) + b) > 0 then last := b
  done;
  Bv_obs.Json.List
    (List.init (!last + 1) (fun b ->
         Bv_obs.Json.Int t.lat_hist.((pc * lat_buckets) + b)))

let branch_json t pc =
  let open Bv_obs.Json in
  let execs = t.execs.(pc) in
  Obj
    [ ("pc", Int pc);
      ("instr", String (Instr.to_string t.code.(pc)));
      ("kind", String (kind_of t.code.(pc)));
      ("site", Int (site_of t.code.(pc)));
      ("execs", Int execs);
      ("mispredicts", Int t.mispredicts.(pc));
      ( "mispredict_rate",
        float
          (if execs = 0 then 0.0
           else Float.of_int t.mispredicts.(pc) /. Float.of_int execs) );
      ("recovery_cycles", Int t.recovery_cycles.(pc));
      ( "avg_resolution_latency",
        float
          (if execs = 0 then 0.0
           else Float.of_int t.lat_sum.(pc) /. Float.of_int execs) );
      ("latency_hist", hist_json t pc)
    ]

let top_branches_json ?(top = 10) t =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  Bv_obs.Json.List (List.map (branch_json t) (take top (top_pcs t)))

let to_json ?top t =
  Bv_obs.Json.Obj
    [ ("cpi_stack", cpi_stack_json t);
      ("top_branches", top_branches_json ?top t)
    ]
