open Bv_obs
open Bv_pipeline

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    ( = )

(* --------------------------------------------------------------- emitter *)

let test_escaping () =
  Alcotest.(check string)
    "specials" {|"a\"b\\c\nd\te\u0001f"|}
    (Json.to_string (Json.String "a\"b\\c\nd\te\001f"));
  Alcotest.(check string)
    "utf8 passthrough" "\"h\xc3\xa9llo\""
    (Json.to_string (Json.String "h\xc3\xa9llo"))

let test_nonfinite () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.check json "smart constructor" Json.Null
    (Json.float Float.neg_infinity);
  Alcotest.check json "finite kept" (Json.Float 2.5) (Json.float 2.5)

let test_roundtrip () =
  let values =
    Json.
      [ Null;
        Bool true;
        Bool false;
        Int 0;
        Int max_int;
        Int min_int;
        Float 0.5;
        Float 0.1;
        Float 1.5e-30;
        Float (-2.75e10);
        Float Float.max_float;
        String "";
        String "plain";
        String "a\"b\\c\nd\te\001f\127\xc3\xa9";
        List [];
        Obj [];
        List [ Int 1; List []; Obj [ ("k", Null) ] ];
        Obj
          [ ("empty_list", List []);
            ("empty_obj", Obj []);
            ("nested", Obj [ ("xs", List [ Bool false; Float 3.0 ]) ])
          ]
      ]
  in
  List.iter
    (fun v ->
      let compact = Json.to_string v in
      (match Json.of_string compact with
      | Ok v' -> Alcotest.check json ("compact: " ^ compact) v v'
      | Error e -> Alcotest.fail e);
      match Json.of_string (Json.to_string ~indent:true v) with
      | Ok v' -> Alcotest.check json ("indented: " ^ compact) v v'
      | Error e -> Alcotest.fail e)
    values

let test_unicode_escapes () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.check json "bmp escape" (Json.String "\xc3\xa9") (ok {|"\u00e9"|});
  Alcotest.check json "surrogate pair"
    (Json.String "\xf0\x9f\x98\x80")
    (ok {|"\ud83d\ude00"|});
  Alcotest.check json "control escape" (Json.String "\001") (ok {|"\u0001"|})

let test_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad
    [ ""; "{"; "["; "tru"; "1 2"; {|{"a":}|}; {|"unterminated|};
      {|"bad \q escape"|}; "[1,]"; "nulll" ]

let test_accessors () =
  let v = Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Null ]) ] in
  Alcotest.(check bool) "member hit" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "member miss" true (Json.member "z" v = None);
  Alcotest.(check int) "to_list" 1
    (List.length (Json.to_list (Option.get (Json.member "b" v))));
  Alcotest.(check int) "to_list non-list" 0 (List.length (Json.to_list v))

(* A document several chunks long, nested, with one string longer than
   a chunk, reaches the channel byte for byte as [to_string] renders
   it. *)
let test_to_channel_chunks () =
  let v =
    Json.Obj
      [ ( "rows",
          Json.List
            (List.init 3000 (fun i ->
                 Json.Obj
                   [ ("i", Json.Int i);
                     ("xs", Json.List [ Json.Float 0.5; Json.String "a\tb" ])
                   ])) );
        ("long", Json.String (String.make 100_000 'x'))
      ]
  in
  List.iter
    (fun indent ->
      let want = Json.to_string ~indent v ^ "\n" in
      let path = Filename.temp_file "bv_json" ".json" in
      Out_channel.with_open_bin path (fun oc -> Json.to_channel ~indent oc v);
      let got = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Alcotest.(check bool)
        (Printf.sprintf "over two chunks (%d bytes)" (String.length want))
        true
        (String.length want > 2 * 65536);
      Alcotest.(check bool)
        (Printf.sprintf "indent %b: bytes equal" indent)
        true (got = want))
    [ true; false ]

(* --------------------------------------------------------- stats golden *)

let test_stats_golden () =
  let s = Stats.create ~sites:[| 7 |] in
  s.Stats.cycles <- 100;
  s.Stats.fetched <- 60;
  s.Stats.issued <- 54;
  s.Stats.squashed_issued <- 4;
  s.Stats.squashed_fetched <- 2;
  s.Stats.predicts_fetched <- 3;
  s.Stats.branch_execs <- 10;
  s.Stats.branch_mispredicts <- 2;
  s.Stats.resolve_execs <- 5;
  s.Stats.resolve_mispredicts <- 1;
  s.Stats.ret_execs <- 1;
  s.Stats.redirects <- 3;
  s.Stats.loads_issued <- 20;
  s.Stats.stores_issued <- 10;
  s.Stats.head_stall_cycles <- 40;
  s.Stats.operand_stall_cycles <- 30;
  s.Stats.fu_stall_cycles <- 6;
  s.Stats.mem_struct_stall_cycles <- 4;
  s.Stats.frontend_empty_cycles <- 5;
  s.Stats.icache_stall_cycles <- 12;
  s.Stats.icache_misses <- 7;
  s.Stats.icache_misses_in_shadow <- 2;
  s.Stats.runahead_prefetches <- 1;
  s.Stats.dbb_full_stalls <- 1;
  s.Stats.dbb_occupancy_sum <- 30;
  s.Stats.dbb_samples <- 10;
  s.Stats.dbb_max_occupancy <- 4;
  let slot = Stats.slot s 7 in
  Stats.add_site_stall s ~slot;
  Stats.add_site_stall s ~slot;
  Stats.add_site_wait s ~slot ~cycles:3;
  Stats.add_site_wait s ~slot ~cycles:5;
  (* The schema contract consumed by external tooling: field names, order
     and derived-value formatting must stay stable across refactors. *)
  let expected =
    String.concat ""
      [ {|{"schema_version":2,|};
        {|"cycles":100,"fetched":60,"issued":54,"retired":50,|};
        {|"squashed_issued":4,"squashed_fetched":2,"predicts_fetched":3,|};
        {|"branch_execs":10,"branch_mispredicts":2,"resolve_execs":5,|};
        {|"resolve_mispredicts":1,"ret_execs":1,"ret_mispredicts":0,|};
        {|"mispredicts":3,"redirects":3,"loads_issued":20,"stores_issued":10,|};
        {|"ipc":0.5,"mppki":60.0,|};
        {|"stalls":{"head":40,"operand":30,"fu":6,"mem_struct":4,|};
        {|"frontend_empty":5,"icache":12},|};
        {|"icache":{"misses":7,"misses_in_shadow":2,"runahead_prefetches":1},|};
        {|"dbb":{"full_stalls":1,"occupancy_sum":30,"samples":10,|};
        {|"avg_occupancy":3.0,"max_occupancy":4},|};
        {|"site_stalls":[{"site":7,"stall_cycles":2}],|};
        {|"site_waits":[{"site":7,"execs":2,"backlog_cycles":8,|};
        {|"avg_backlog":4.0}]}|}
      ]
  in
  Alcotest.(check string) "golden" expected (Json.to_string (Stats.to_json s))

let test_stats_sites_canonical () =
  (* [~sites] in any order, with repeats: one slot per distinct id, and
     the tables come out in ascending id order exactly once each *)
  let s = Stats.create ~sites:[| 42; 7; 900_001; 7; 42 |] in
  Alcotest.(check (array int)) "sorted, distinct" [| 7; 42; 900_001 |]
    s.Stats.sites;
  Alcotest.(check int) "one slot per id" 3 (Array.length s.Stats.site_stalls);
  List.iter
    (fun site ->
      let slot = Stats.slot s site in
      Stats.add_site_stall s ~slot;
      Stats.add_site_wait s ~slot ~cycles:site)
    [ 900_001; 7; 42 ];
  let ids key =
    match Json.member key (Stats.to_json s) with
    | Some l ->
      List.map
        (fun row ->
          match Json.member "site" row with
          | Some (Json.Int i) -> i
          | _ -> Alcotest.fail "row without a site")
        (Json.to_list l)
    | None -> Alcotest.fail ("missing " ^ key)
  in
  Alcotest.(check (list int)) "site_stalls order" [ 7; 42; 900_001 ]
    (ids "site_stalls");
  Alcotest.(check (list int)) "site_waits order" [ 7; 42; 900_001 ]
    (ids "site_waits");
  Alcotest.(check int) "stall by id" 1 (Stats.site_stall_cycles s 900_001);
  Alcotest.(check (float 0.0)) "wait by id" 42.0 (Stats.site_wait_avg s 42)

let test_stats_absent_site () =
  let s = Stats.create ~sites:[| 3; 900_000 |] in
  Stats.add_site_stall s ~slot:(Stats.slot s 3);
  Stats.add_site_wait s ~slot:(Stats.slot s 900_000) ~cycles:9;
  List.iter
    (fun site ->
      let name = string_of_int site in
      Alcotest.(check int) (name ^ ": no slot") (-1) (Stats.slot s site);
      Alcotest.(check int) (name ^ ": stall") 0 (Stats.site_stall_cycles s site);
      Alcotest.(check (float 0.0)) (name ^ ": wait") 0.0
        (Stats.site_wait_avg s site))
    [ -1; 0; 4; 899_999; 900_001; max_int ]

(* ---------------------------------------------------- machine-level runs *)

let tiny_image ?(seed = 11) () =
  let spec =
    Bv_workloads.Spec.make ~name:"obs" ~suite:Bv_workloads.Spec.Int_2006 ~seed
      ~branch_classes:
        [ Bv_workloads.Spec.cls ~count:3 ~taken_rate:0.6 ~predictability:0.9 ();
          Bv_workloads.Spec.cls ~iid:true ~count:1 ~taken_rate:0.5
            ~predictability:0.5 ()
        ]
      ~inner_n:64 ~reps:2 ()
  in
  Bv_ir.Layout.program (Bv_workloads.Gen.generate ~input:1 spec)

let num = function
  | Json.Int i -> Float.of_int i
  | Json.Float f -> f
  | _ -> Alcotest.fail "expected number"

let get k ev =
  match Json.member k ev with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" k

let test_trace_nesting () =
  let tr = Perfetto.create () in
  let result =
    Machine.run ~config:Config.four_wide ~on_event:(Perfetto.on_event tr)
      (tiny_image ())
  in
  Alcotest.(check int) "nothing dropped" 0 (Perfetto.dropped tr);
  let evs = Perfetto.events tr in
  let spans =
    List.filter (fun ev -> Json.member "ph" ev = Some (Json.String "X")) evs
  in
  (* instruction spans indexed by seq; every "execute" span must nest
     inside its instruction's span on the same lane *)
  let instr_spans = Hashtbl.create 256 and execs = ref [] in
  List.iter
    (fun ev ->
      let seq =
        match get "args" ev |> Json.member "seq" with
        | Some (Json.Int s) -> s
        | _ -> Alcotest.fail "span without args.seq"
      in
      let ts = num (get "ts" ev) and dur = num (get "dur" ev) in
      let tid = num (get "tid" ev) in
      Alcotest.(check bool) "positive duration" true (dur > 0.);
      match get "name" ev with
      | Json.String "execute" -> execs := (seq, tid, ts, dur) :: !execs
      | _ -> Hashtbl.replace instr_spans seq (tid, ts, dur))
    spans;
  let stats = result.Machine.stats in
  Alcotest.(check int) "one span per fetched instruction"
    stats.Stats.fetched (Hashtbl.length instr_spans);
  Alcotest.(check bool) "some instructions issued" true (!execs <> []);
  List.iter
    (fun (seq, tid, ts, dur) ->
      match Hashtbl.find_opt instr_spans seq with
      | None -> Alcotest.failf "execute span for unknown seq %d" seq
      | Some (ptid, pts, pdur) ->
        Alcotest.(check (float 0.)) "same lane" ptid tid;
        Alcotest.(check bool)
          (Printf.sprintf "issue span of seq %d nests in fetch span" seq)
          true
          (ts >= pts && ts +. dur <= pts +. pdur))
    !execs;
  (* the workload has a coin-flip branch class, so squashes and redirects
     must show up as instants *)
  let instants name =
    List.filter
      (fun ev ->
        Json.member "ph" ev = Some (Json.String "i")
        && Json.member "name" ev = Some (Json.String name))
      evs
  in
  Alcotest.(check bool) "squash instants" true (instants "squash" <> []);
  Alcotest.(check int) "redirect instants"
    stats.Stats.redirects
    (List.length (instants "redirect"));
  match Json.member "traceEvents" (Perfetto.to_json tr) with
  | Some (Json.List l) ->
    Alcotest.(check int) "document wraps all events" (List.length evs)
      (List.length l)
  | _ -> Alcotest.fail "document missing traceEvents"

let test_trace_cap () =
  let tr = Perfetto.create ~max_instructions:10 () in
  ignore
    (Machine.run ~config:Config.four_wide ~on_event:(Perfetto.on_event tr)
       (tiny_image ()));
  Alcotest.(check bool) "drops counted" true (Perfetto.dropped tr > 0);
  let spans =
    List.filter
      (fun ev ->
        Json.member "ph" ev = Some (Json.String "X")
        && Json.member "name" ev <> Some (Json.String "execute"))
      (Perfetto.events tr)
  in
  Alcotest.(check int) "cap respected" 10 (List.length spans)

let test_sampler () =
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Sampler.create: interval must be > 0") (fun () ->
      ignore (Sampler.create ~interval:0 ()));
  let smp = Sampler.create ~interval:100 () in
  let result =
    Machine.run ~config:Config.four_wide ~on_cycle:(Sampler.observe smp)
      (tiny_image ())
  in
  Sampler.finish smp;
  let ws = Sampler.windows smp in
  Alcotest.(check bool) "windows recorded" true (List.length ws > 1);
  let stats = result.Machine.stats in
  Alcotest.(check int) "retired partitioned exactly"
    (Stats.retired stats)
    (List.fold_left (fun acc w -> acc + w.Sampler.retired) 0 ws);
  Alcotest.(check int) "mispredicts partitioned exactly"
    (Stats.mispredicts stats)
    (List.fold_left (fun acc w -> acc + w.Sampler.mispredicts) 0 ws);
  let rec check_contiguous = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check int) "contiguous" a.Sampler.end_cycle b.Sampler.start_cycle;
      Alcotest.(check int) "full window" 100
        (a.Sampler.end_cycle - a.Sampler.start_cycle);
      check_contiguous rest
    | [ last ] ->
      Alcotest.(check int) "tail reaches final cycle" stats.Stats.cycles
        last.Sampler.end_cycle
    | [] -> ()
  in
  check_contiguous ws;
  List.iter
    (fun w ->
      Alcotest.(check bool) "ipc within issue width" true
        (w.Sampler.ipc >= 0. && w.Sampler.ipc <= 4.))
    ws;
  match Json.member "windows" (Sampler.to_json smp) with
  | Some (Json.List l) ->
    Alcotest.(check int) "json mirrors windows" (List.length ws)
      (List.length l)
  | _ -> Alcotest.fail "sampler json missing windows"

(* ----------------------------------------------------- cycle accounting *)

(* The four golden configurations (mirroring test_goldens.ml): plain and
   decomposed builds of a branchy integer kernel and a memory-bound
   kernel, the latter pair under runahead. Conservation must hold on all
   of them — every simulated cycle charged to exactly one component. *)

let baseline_of program =
  let p = Bv_ir.Program.copy program in
  Bv_sched.Sched.schedule_program p;
  p

let spec_int =
  Bv_workloads.Spec.(
    make ~name:"golden-int" ~suite:Int_2006 ~seed:7001
      ~branch_classes:
        [ cls ~count:6 ~taken_rate:0.60 ~predictability:0.95 ();
          cls ~iid:true ~count:4 ~taken_rate:0.92 ~predictability:0.92 ();
          cls ~iid:true ~count:2 ~taken_rate:0.50 ~predictability:0.50 ()
        ]
      ~loads_per_block:3.0 ~cond_depth:4 ~inner_n:128 ~reps:10 ())

let spec_mem =
  Bv_workloads.Spec.(
    make ~name:"golden-mem" ~suite:Fp_2006 ~seed:7002
      ~branch_classes:[ cls ~count:4 ~taken_rate:0.58 ~predictability:0.96 () ]
      ~loads_per_block:4.0 ~footprint_kb:128 ~chase_frac:0.2 ~cond_chase:true
      ~inner_n:64 ~reps:3 ())

let plain_image spec =
  Bv_ir.Layout.program (baseline_of (Bv_workloads.Gen.generate ~input:1 spec))

let decomposed_image spec =
  let program = Bv_workloads.Gen.generate ~input:1 spec in
  let train = Bv_workloads.Gen.generate ~input:0 spec in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
      (Bv_ir.Layout.program (baseline_of train))
  in
  let selection = Vanguard.Select.select ~profile train in
  let result =
    Vanguard.Transform.apply ~exit_live:Bv_workloads.Gen.live_at_exit
      ~candidates:selection.Vanguard.Select.candidates program
  in
  Bv_ir.Layout.program result.Vanguard.Transform.program

let runahead_w8 =
  { (Config.make ~predictor:Bv_bpred.Kind.Tage ~width:8 ()) with
    Config.runahead = true
  }

let golden_cases =
  [ ("plain_w4", Config.four_wide, lazy (plain_image spec_int));
    ("decomposed_w4", Config.four_wide, lazy (decomposed_image spec_int));
    ("runahead_w8", runahead_w8, lazy (plain_image spec_mem));
    ("decomposed_runahead_w8", runahead_w8, lazy (decomposed_image spec_mem))
  ]

let run_accounted config image =
  let acct = Acct.create image.Bv_ir.Layout.code in
  let res = Machine.run ~config ~acct image in
  (acct, res)

let check_attribution name acct (stats : Stats.t) =
  (* conservation: every cycle in exactly one component *)
  Acct.check acct ~cycles:stats.Stats.cycles;
  Alcotest.(check int)
    (name ^ ": stack sums to cycles")
    stats.Stats.cycles (Acct.total acct);
  (* per-pc attribution reconciles with the aggregate counters *)
  let sum a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int)
    (name ^ ": execs partition control completions")
    (stats.Stats.branch_execs + stats.Stats.resolve_execs
   + stats.Stats.ret_execs)
    (sum acct.Acct.execs);
  Alcotest.(check int)
    (name ^ ": mispredicts partition")
    (stats.Stats.branch_mispredicts + stats.Stats.resolve_mispredicts
   + stats.Stats.ret_mispredicts)
    (sum acct.Acct.mispredicts);
  Alcotest.(check int)
    (name ^ ": recovery cycles attributed to pcs")
    acct.Acct.components.(Acct.c_recovery)
    (sum acct.Acct.recovery_cycles);
  Alcotest.(check int)
    (name ^ ": histogram counts every resolution")
    (sum acct.Acct.execs) (sum acct.Acct.lat_hist);
  (* site rows fold the per-pc totals of the sited control instructions
     (rets and calls carry no site id and stay out of the join) *)
  let sites = Acct.by_site acct in
  let sited a =
    let acc = ref 0 in
    Array.iteri
      (fun pc v ->
        match acct.Acct.code.(pc) with
        | Bv_isa.Instr.Branch _ | Bv_isa.Instr.Resolve _ -> acc := !acc + v
        | _ -> ())
      a;
    !acc
  in
  Alcotest.(check int)
    (name ^ ": site rows fold recovery")
    (sited acct.Acct.recovery_cycles)
    (List.fold_left (fun a sa -> a + sa.Acct.sa_recovery) 0 sites);
  Alcotest.(check int)
    (name ^ ": site rows fold execs")
    (sited acct.Acct.execs)
    (List.fold_left (fun a sa -> a + sa.Acct.sa_execs) 0 sites)

let test_acct_conservation () =
  List.iter
    (fun (name, config, image) ->
      let acct, res = run_accounted config (Lazy.force image) in
      Alcotest.(check bool) (name ^ ": finished") true res.Machine.finished;
      check_attribution name acct res.Machine.stats;
      (* generated loop latches carry site ids from 900_000: the rows
         must still come out ascending, and folding them must cost
         memory in proportion to the code, not to the largest id *)
      let before = Gc.allocated_bytes () in
      let sites = Acct.by_site acct in
      let bytes = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (name ^ ": a latch site >= 900000")
        true
        (List.exists (fun sa -> sa.Acct.sa_site >= 900_000) sites);
      let ids = List.map (fun sa -> sa.Acct.sa_site) sites in
      Alcotest.(check (list int))
        (name ^ ": one row per site, ascending")
        (List.sort_uniq Int.compare ids)
        ids;
      Alcotest.(check bool)
        (Printf.sprintf "%s: by_site allocated %.0f bytes < 1 MiB" name bytes)
        true
        (bytes < 1048576.0))
    golden_cases

let test_stats_size_bounded () =
  (* a run's counters are sized by the sites in the image: generated
     latch ids >= 900_000 must not inflate them *)
  List.iter
    (fun (name, config, image) ->
      let image = Lazy.force image in
      Alcotest.(check bool)
        (name ^ ": image has a site >= 900000")
        true
        (Array.exists
           (function
             | Bv_isa.Instr.Branch { id; _ } | Bv_isa.Instr.Resolve { id; _ }
               ->
               id >= 900_000
             | _ -> false)
           image.Bv_ir.Layout.code);
      let res = Machine.run ~config image in
      let words = Obj.reachable_words (Obj.repr res.Machine.stats) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: stats %d words < 2000" name words)
        true (words < 2000))
    golden_cases

let test_acct_fuzz () =
  (* random structured programs (straight blocks, hammocks, loops,
     calls): conservation may not depend on workload shape *)
  for seed = 0 to 24 do
    let img =
      Bv_ir.Layout.program (Bv_workloads.Fuzzgen.generate ~seed)
    in
    List.iter
      (fun config ->
        let acct, res = run_accounted config img in
        check_attribution (Printf.sprintf "fuzz %d" seed) acct
          res.Machine.stats)
      Config.[ two_wide; eight_wide ]
  done

let test_acct_off_identity () =
  (* attaching an accountant must not perturb the simulation: same
     cycles, same digests, byte-identical un-accounted stats JSON *)
  List.iter
    (fun (name, config, image) ->
      let image = Lazy.force image in
      let plain = Machine.run ~config image in
      let _, accounted = run_accounted config image in
      Alcotest.(check string)
        (name ^ ": stats JSON byte-identical")
        (Json.to_string (Stats.to_json plain.Machine.stats))
        (Json.to_string (Stats.to_json accounted.Machine.stats));
      Alcotest.(check int)
        (name ^ ": same arch digest")
        plain.Machine.arch_digest accounted.Machine.arch_digest)
    golden_cases

let test_acct_merge () =
  let image = tiny_image () in
  let a, res = run_accounted Config.four_wide image in
  let b, _ = run_accounted Config.four_wide image in
  let m = Acct.merge a b in
  Alcotest.(check int) "merged stack doubles"
    (2 * res.Machine.stats.Stats.cycles)
    (Acct.total m);
  Alcotest.(check int) "merged execs double"
    (2 * Array.fold_left ( + ) 0 a.Acct.execs)
    (Array.fold_left ( + ) 0 m.Acct.execs);
  Acct.check m ~cycles:(2 * res.Machine.stats.Stats.cycles);
  Alcotest.check_raises "different code rejected"
    (Invalid_argument "Acct.merge: attribution tables cover different code")
    (fun () -> ignore (Acct.merge a (Acct.create [||])));
  match Acct.to_json a with
  | Json.Obj [ ("cpi_stack", Json.Obj stack); ("top_branches", Json.List _) ]
    ->
    Alcotest.(check bool) "stack carries cycles" true
      (List.mem_assoc "cycles" stack)
  | _ -> Alcotest.fail "Acct.to_json shape"

(* --------------------------------------------------- sampler edge cases *)

let test_sampler_interval_one () =
  let image = tiny_image () in
  let acct = Acct.create image.Bv_ir.Layout.code in
  let smp = Sampler.create ~interval:1 ~acct () in
  let res =
    Machine.run ~config:Config.four_wide ~acct ~on_cycle:(Sampler.observe smp)
      image
  in
  Sampler.finish smp;
  let ws = Sampler.windows smp in
  Alcotest.(check int) "one window per cycle" res.Machine.stats.Stats.cycles
    (List.length ws);
  List.iter
    (fun w ->
      Alcotest.(check int) "window of one cycle" 1
        (w.Sampler.end_cycle - w.Sampler.start_cycle);
      Alcotest.(check int) "one component charge per cycle" 1
        (Array.fold_left ( + ) 0 w.Sampler.components))
    ws

let test_sampler_window_conservation () =
  (* per-window conservation: each window's CPI-stack deltas sum to the
     window's cycle count, tail included; the windows partition the
     whole run's stack *)
  let image = plain_image spec_int in
  let acct = Acct.create image.Bv_ir.Layout.code in
  let smp = Sampler.create ~interval:777 ~acct () in
  let res =
    Machine.run ~config:Config.four_wide ~acct ~on_cycle:(Sampler.observe smp)
      image
  in
  Sampler.finish smp;
  let ws = Sampler.windows smp in
  Alcotest.(check bool) "several windows" true (List.length ws > 2);
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "window %d..%d conserved" w.Sampler.start_cycle
           w.Sampler.end_cycle)
        (w.Sampler.end_cycle - w.Sampler.start_cycle)
        (Array.fold_left ( + ) 0 w.Sampler.components))
    ws;
  let tail = List.nth ws (List.length ws - 1) in
  Alcotest.(check bool) "partial tail window" true
    (tail.Sampler.end_cycle - tail.Sampler.start_cycle < 777);
  Alcotest.(check int) "tail reaches final cycle" res.Machine.stats.Stats.cycles
    tail.Sampler.end_cycle;
  let totals = Array.make Acct.n_components 0 in
  List.iter
    (fun w ->
      Array.iteri (fun i v -> totals.(i) <- totals.(i) + v)
        w.Sampler.components)
    ws;
  Alcotest.(check (array int)) "windows partition the stack"
    acct.Acct.components totals;
  (* the JSON view carries a cpi object per window iff accounting is on *)
  let has_cpi smp' expect =
    match Json.member "windows" (Sampler.to_json smp') with
    | Some (Json.List (w :: _)) ->
      Alcotest.(check bool) "cpi presence" expect
        (Json.member "cpi" w <> None)
    | _ -> Alcotest.fail "sampler json missing windows"
  in
  has_cpi smp true;
  let bare = Sampler.create ~interval:100 () in
  ignore
    (Machine.run ~config:Config.four_wide ~on_cycle:(Sampler.observe bare)
       (tiny_image ()));
  Sampler.finish bare;
  has_cpi bare false

let () =
  Alcotest.run "bv_obs"
    [ ( "json",
        [ Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "non-finite" `Quick test_nonfinite;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "to_channel in chunks" `Quick
            test_to_channel_chunks
        ] );
      ( "stats",
        [ Alcotest.test_case "golden to_json" `Quick test_stats_golden;
          Alcotest.test_case "sites canonical" `Quick
            test_stats_sites_canonical;
          Alcotest.test_case "absent site reads 0" `Quick
            test_stats_absent_site;
          Alcotest.test_case "size bounded by image" `Quick
            test_stats_size_bounded
        ] );
      ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_trace_nesting;
          Alcotest.test_case "instruction cap" `Quick test_trace_cap
        ] );
      ( "sampler",
        [ Alcotest.test_case "windows" `Quick test_sampler;
          Alcotest.test_case "interval one" `Quick test_sampler_interval_one;
          Alcotest.test_case "window conservation" `Quick
            test_sampler_window_conservation
        ] );
      ( "acct",
        [ Alcotest.test_case "conservation (golden configs)" `Quick
            test_acct_conservation;
          Alcotest.test_case "conservation (fuzz corpus)" `Quick
            test_acct_fuzz;
          Alcotest.test_case "accounting-off identity" `Quick
            test_acct_off_identity;
          Alcotest.test_case "merge" `Quick test_acct_merge
        ] )
    ]
