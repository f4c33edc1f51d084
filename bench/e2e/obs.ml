(* The benchmark's own instrumentation: host clock, host speed and
   resource usage, order statistics, checked-op accounting and in-memory
   trace spans.
   Spans are recorded from the benchmark's side, around its calls into
   each layer; the program itself carries no spans. *)

external self_peak_rss_kb : unit -> int = "bvbench_self_peak_rss_kb"
external reference_loop : unit -> unit = "bvbench_reference_loop" [@@noalloc]

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = Bv_harness.Agg.median

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mb_of_kb kb = float_of_int kb /. 1024.0

(* What the run loop drives. [round r] runs one fixed set of keyed, checked
   ops; [probe] (traced runs only) takes the layer measurements that do
   not belong in a round; [layers] reports the workload's own per-layer
   metrics once the run is over. [sensitivity] is the measured exponent
   relating the workload's slowdown on a shared host to the reference
   loop's (see "host speed" below). *)
type workload =
  { sensitivity : float;
    setup : unit -> unit;
    round : int -> unit;
    probe : unit -> unit;
    layers : unit -> (string * float) list
  }

(* ------------------------------------------------------------------ spans *)

type span =
  { name : string;
    id : int;
    parent : int;  (** 0 for a phase root *)
    root : int;  (** id of the enclosing phase root *)
    op : int;  (** spans of one checked op share this id *)
    t0 : float;
    mutable t1 : float
  }

let tracing = ref false
let closed : span list ref = ref []
let stack : span list ref = ref []
let last_id = ref 0
let op_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    incr last_id;
    let id = !last_id in
    let parent, root =
      match !stack with p :: _ -> (p.id, p.root) | [] -> (0, id)
    in
    let s = { name; id; parent; root; op = !op_id; t0 = now (); t1 = 0.0 } in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        closed := s :: !closed)
  end

(* A phase (one set-up repetition, round or probe) is a root span; spans
   are recorded only inside traced phases. *)
let phase ~traced name f =
  let saved = !tracing in
  tracing := traced;
  Fun.protect (fun () -> span name f) ~finally:(fun () -> tracing := saved)

(* ------------------------------------------------------------- host speed *)

(* Other tenants of a shared host slow the program by tens of percent for
   seconds to minutes. The reference loop (rusage_stubs.c) slows with it,
   less than the program does: the program's slowdown is about the
   loop's raised to the workload's sensitivity, 1.5 to 2, while on a
   host quieter than the reference both speed up alike (README.md, "Host
   speed"). So a time measured while the loop takes [k] ms is reported
   as that time times (reference_ms / k) ** e, with e the sensitivity
   when k > reference_ms and 1 otherwise: seconds at the reference
   speed. Readings are taken between ops, at most every [reading_gap]
   seconds, and a time is scaled by the mean of the readings just before
   and just after it. *)
let reference_ms = 0.30
let reading_gap = 0.025
let sensitivity = ref 2.0

let last_reading = ref reference_ms
let last_read_at = ref neg_infinity

(* Times awaiting the reading after them. *)
let unscaled : (float -> unit) list ref = ref []

let read_host () =
  let k =
    span "bench.host_speed" (fun () ->
        1e3 *. median (List.init 3 (fun _ -> snd (timed reference_loop))))
  in
  let k_mean = (!last_reading +. k) /. 2.0 in
  let scale =
    (reference_ms /. k_mean) ** (if k_mean > reference_ms then !sensitivity else 1.0)
  in
  List.iter (fun record -> record scale) !unscaled;
  unscaled := [];
  last_reading := k;
  last_read_at := now ()

(* [scaled dt record]: [record] gets [dt] at the reference speed once the
   next reading is taken. *)
let scaled dt record = unscaled := (fun s -> record (dt *. s)) :: !unscaled

let peak_rss_mb () = mb_of_kb (self_peak_rss_kb ())

(* Set-up times at the reference speed, one per repetition. *)
let setup_samples : float list ref = ref []

(* --------------------------------------------------------------- checked ops *)

let attempted = ref 0
let failed = ref 0

(* Seconds at the reference speed of every keyed op, by key (newest
   first). *)
let op_times : (string, float list) Hashtbl.t = Hashtbl.create 64

(* A round at the reference speed: the sum over the round's keyed ops of
   each op's median time across the run's rounds. *)
let round_seconds () =
  Hashtbl.fold (fun _ times acc -> acc +. median times) op_times 0.0

(* [op ~key f]: one checked operation. [f] returns [false] (after saying
   why on stderr) or raises when its output is wrong. Ops with a [key]
   are the ones a round repeats. *)
let op ?key f =
  incr attempted;
  incr op_id;
  if now () -. !last_read_at >= reading_gap then read_host ();
  let ok, dt =
    timed (fun () ->
        try f ()
        with e ->
          Printf.eprintf "op %d raised %s\n%!" !op_id (Printexc.to_string e);
          false)
  in
  if not ok then incr failed;
  match key with
  | Some k ->
    scaled dt (fun s ->
        Hashtbl.replace op_times k
          (s :: Option.value ~default:[] (Hashtbl.find_opt op_times k)))
  | None -> ()

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then Printf.eprintf "check failed: %s\n%!" msg;
      ok)
    fmt

(* ----------------------------------------------------------- span analysis *)

let duration s = s.t1 -. s.t0

let phase_seconds () =
  List.fold_left (fun a s -> if s.parent = 0 then a +. duration s else a) 0.0 !closed

(* Share of traced phase time covered by layer spans. *)
let coverage_pct () =
  let covered =
    List.fold_left
      (fun a s -> if s.parent <> 0 && s.parent = s.root then a +. duration s else a)
      0.0 !closed
  in
  let wall = phase_seconds () in
  if wall > 0.0 then 100.0 *. covered /. wall else 0.0

(* Host seconds in spans named [name], per phase that ran the layer. *)
let layer_seconds name =
  let mine = List.filter (fun s -> s.name = name) !closed in
  let phases =
    List.sort_uniq compare (List.map (fun s -> s.root) mine)
  in
  match phases with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun a s -> a +. duration s) 0.0 mine
    /. float_of_int (List.length phases)

(* Calls, self time (span minus child spans) and share of traced wall per
   span name. *)
let layer_table () =
  let self = Hashtbl.create 32 in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !closed;
  List.iter
    (fun s ->
      let name = if s.parent = 0 then "(bench " ^ s.name ^ ")" else s.name in
      let calls, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt self name) in
      let own =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace self name (calls + 1, t +. own))
    !closed;
  let wall = phase_seconds () in
  Hashtbl.fold
    (fun name (calls, t) acc ->
      (name, calls, t, if wall > 0.0 then 100.0 *. t /. wall else 0.0) :: acc)
    self []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a)

let write_chrome_trace path =
  let open Bv_obs in
  let tr = Trace_event.create () in
  Trace_event.set_process_name tr ~pid:1 "bvbench";
  let origin =
    List.fold_left (fun a s -> Float.min a s.t0) infinity !closed
  in
  List.iter
    (fun s ->
      Trace_event.span tr ~name:s.name
        ~cat:(List.hd (String.split_on_char '.' s.name))
        ~pid:1 ~tid:1
        ~ts:(1e6 *. (s.t0 -. origin))
        ~dur:(1e6 *. duration s)
        ~args:
          [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
            ("op", Json.Int s.op) ]
        ())
    (List.sort (fun a b -> compare a.id b.id) !closed);
  Out_channel.with_open_text path (fun oc ->
      Json.to_channel oc (Trace_event.to_json tr))
