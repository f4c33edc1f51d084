(* Stall skipping is exact.

   A [Machine.run] without an [on_cycle] hook fast-forwards provable
   stall cycles, charging them to the CPI stack in closed form when it is
   accounted; an [on_cycle] hook makes it step every cycle. The stepped
   run is the reference:

   - an unobserved run's full result JSON (every Stats counter, cache
     hierarchy stats) and both architectural digests must equal those of
     a run stepped by a no-op [on_cycle] observer;
   - an accounted and evented run must equal the same run stepped, on all
     six {!Acct} tables, on the result JSON with its CPI stack and top
     branches, and on the event stream; its counters must also equal the
     unobserved run's, and it must skip exactly the cycles the unobserved
     run skips (stepping is byte-identical, so only [skipped_cycles]
     shows a mode that stopped skipping).

   Both are checked on random structured programs across widths and
   under runahead (with 8, 32 and 64 fetch-buffer entries), and on four
   suite configurations, both sides of the transform, at a tenth of
   their calibrated repetitions. *)

open Bv_bpred
open Bv_ir
open Bv_pipeline
open Bv_workloads

let no_op_cycle ~cycle:_ ~stats:_ ~dbb_occupancy:_ = ()

let result_string ?acct res =
  Bv_obs.Json.to_string (Machine.result_to_json ?acct res)

(* [Some msg] when the unobserved run of [image] under [config] differs
   from the stepped one. *)
let divergence config image =
  let a = Machine.run ~config image in
  let b = Machine.run ~on_cycle:no_op_cycle ~config image in
  if result_string a <> result_string b then Some "result JSON differs"
  else if a.Machine.mem_digest <> b.Machine.mem_digest then
    Some "mem_digest differs"
  else if a.Machine.arch_digest <> b.Machine.arch_digest then
    Some "arch_digest differs"
  else None

(* The event stream as a count and an FNV fold over every field of every
   event ([Fetched]'s instruction is the one at its pc): a benchmark's
   full event list would not fit the test's memory. *)
let event_digest () =
  let n = ref 0 and h = ref 0xcbf29ce4 in
  let mix v = h := (!h lxor v) * 0x100000001B3 land max_int in
  let on_event ev =
    incr n;
    match ev with
    | Machine.Fetched { cycle; seq; pc; instr = _ } ->
      mix 1; mix cycle; mix seq; mix pc
    | Machine.Issued { cycle; seq } -> mix 2; mix cycle; mix seq
    | Machine.Completed { cycle; seq; mispredicted } ->
      mix 3; mix cycle; mix seq; mix (Bool.to_int mispredicted)
    | Machine.Squashed { cycle; seq } -> mix 4; mix cycle; mix seq
    | Machine.Redirected { cycle; after_seq; new_pc } ->
      mix 5; mix cycle; mix after_seq; mix new_pc
  in
  (on_event, fun () -> (!n, !h))

let acct_tables (a : Acct.t) =
  Acct.
    [ ("components", a.components);
      ("execs", a.execs);
      ("mispredicts", a.mispredicts);
      ("recovery_cycles", a.recovery_cycles);
      ("lat_sum", a.lat_sum);
      ("lat_hist", a.lat_hist)
    ]

(* [Some msg] when the accounted, evented run of [image] under [config]
   differs from the same run stepped, or its counters or skipped cycles
   from the unobserved run's. *)
let observed_divergence config image =
  let observed ?on_cycle () =
    let acct = Acct.create image.Layout.code in
    let on_event, events = event_digest () in
    let res = Machine.run ?on_cycle ~on_event ~acct ~config image in
    (res, acct, events ())
  in
  let a, acct_a, events_a = observed () in
  let b, acct_b, events_b = observed ~on_cycle:no_op_cycle () in
  match
    List.find_opt
      (fun ((_, x), (_, y)) -> x <> y)
      (List.combine (acct_tables acct_a) (acct_tables acct_b))
  with
  | Some ((name, _), _) -> Some ("Acct." ^ name ^ " differs")
  | None ->
    if result_string ~acct:acct_a a <> result_string ~acct:acct_b b then
      Some "accounted result JSON differs"
    else if events_a <> events_b then Some "event stream differs"
    else
      let unobserved = Machine.run ~config image in
      if result_string a <> result_string unobserved then
        Some "observing changed the result"
      else if a.Machine.skipped_cycles <> unobserved.Machine.skipped_cycles
      then
        Some
          (Printf.sprintf "observed run skipped %d cycles, unobserved %d"
             a.Machine.skipped_cycles unobserved.Machine.skipped_cycles)
      else None

(* The runahead sweep walks an index of the fetch buffer's memory
   entries that fetch, issue and flushes maintain: the small buffer with
   two MSHRs makes flushes and refused prefetches frequent, the 64-entry
   one makes the index long. *)
let configs =
  Config.
    [ two_wide;
      four_wide;
      eight_wide;
      { (make ~predictor:Kind.Tage ~width:4 ()) with runahead = true };
      { (make ~predictor:Kind.Tage ~width:8 ()) with runahead = true };
      { (make ~predictor:Kind.Tage ~width:4 ()) with
        runahead = true;
        fetch_buffer = 8;
        mshrs = 2
      };
      { (make ~predictor:Kind.Tage ~width:8 ()) with
        runahead = true;
        fetch_buffer = 64
      }
    ]

let prop_stall_skip =
  QCheck2.Test.make ~name:"unobserved run = stepped run (no-op on_cycle)"
    ~count:30
    (QCheck2.Gen.int_range 0 100_000)
    (fun seed ->
      let image = Layout.program (Fuzzgen.generate ~seed) in
      List.for_all (fun config -> divergence config image = None) configs)

let prop_observed =
  QCheck2.Test.make ~name:"accounted, evented run = stepped run" ~count:30
    (QCheck2.Gen.int_range 0 100_000)
    (fun seed ->
      let image = Layout.program (Fuzzgen.generate ~seed) in
      List.for_all
        (fun config -> observed_divergence config image = None)
        configs)

(* A skip charges its stretch with one [account_cycles st n] call on a
   state frozen but for [now]; it must equal [n] one-cycle charges at
   successive cycles. Real skips rarely cross a split point (a stretch
   usually ends at the load completion or the fetch unblock), so the
   split points are drawn here: [fetch_stall_until] and the ready times
   of two operands of the issue head, each load-produced or not. *)
let prop_account_cycles =
  let image = Layout.program (Fuzzgen.generate ~seed:1) in
  let head_pc =
    let st = Machine_state.create ~config:Config.four_wide image in
    let static = st.Machine_state.static in
    let rec find pc =
      if Array.length static.(pc).Machine_state.s_uses >= 2 then pc
      else find (pc + 1)
    in
    find 0
  in
  let charged ~stepped (stall, recovery, src, stall_until, operands, n) =
    let open Machine_state in
    let acct = Acct.create image.Layout.code in
    let st = create ~config:Config.four_wide ~acct image in
    st.now <- 10;
    st.cycle_stall <- stall;
    st.in_recovery <- recovery;
    st.recovery_pc <- head_pc;
    st.fetch_stall_src <- src;
    st.fetch_stall_until <- stall_until;
    let h = alloc_inflight st in
    st.i_pc.(h) <- head_pc;
    Ring.push st.fbuf h;
    List.iteri
      (fun k (ready, load) ->
        let r = st.static.(head_pc).s_uses.(k) in
        st.ready.(r) <- ready;
        st.ready_src_load.(r) <- Bool.to_int load)
      operands;
    if stepped then
      for _ = 1 to n do
        account_cycles st 1;
        st.now <- st.now + 1
      done
    else account_cycles st n;
    (acct.Acct.components, acct.Acct.recovery_cycles)
  in
  let open QCheck2.Gen in
  let operand = tup2 (int_range 0 60) bool in
  QCheck2.Test.make ~name:"account_cycles n = n one-cycle charges"
    ~count:300
    (tup6
       (oneofl
          Machine_state.[ stall_frontend; stall_operand; stall_fu; stall_mem ])
       bool
       (oneofl Machine_state.[ fsrc_icache; fsrc_redirect; fsrc_dbb ])
       (int_range 0 60)
       (tup2 operand operand |> map (fun (a, b) -> [ a; b ]))
       (int_range 1 40))
    (fun case -> charged ~stepped:false case = charged ~stepped:true case)

(* (benchmark, width, predictor): one branchy and one memory-bound
   program per width, on three predictor families. *)
let bench_cases =
  [ ("perlbench", 4, Kind.Tournament);
    ("gcc", 4, Kind.Tage);
    ("mcf", 8, Kind.Tournament);
    ("astar", 8, Kind.Isl_tage)
  ]

let test_bench (name, width, predictor) () =
  let spec = Option.get (Suites.find name) in
  let reps =
    max 2 (Float.to_int (Float.round (Float.of_int spec.Spec.reps *. 0.1)))
  in
  let b = Bv_harness.Runner.prepare { spec with Spec.reps } in
  let config = Config.make ~predictor ~width () in
  List.iter
    (fun (side, image) ->
      let what =
        Printf.sprintf "%s w%d %s %s" name width (Kind.name predictor) side
      in
      Alcotest.(check (option string))
        (what ^ " unobserved") None (divergence config image);
      Alcotest.(check (option string))
        (what ^ " observed") None
        (observed_divergence config image))
    [ ("baseline", Bv_harness.Runner.baseline_program b ~input:1);
      ("experimental", Bv_harness.Runner.experimental_program b ~input:1)
    ]

let () =
  Alcotest.run "bv_stall_skip"
    [ ( "byte-identity",
        [ QCheck_alcotest.to_alcotest prop_stall_skip;
          QCheck_alcotest.to_alcotest prop_observed;
          QCheck_alcotest.to_alcotest prop_account_cycles
        ] );
      ( "benchmarks",
        List.map
          (fun ((name, width, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s w%d" name width)
              `Quick (test_bench case))
          bench_cases )
    ]
