(* Hot-path data structures in isolation: the monomorphic handle Ring,
   the Release occupancy heaps, the pre-decoded static table, the
   struct-of-arrays in-flight pool, and the SoA DBB — everything the
   per-cycle loop leans on for its zero-allocation / O(1) claims — plus
   the allocation of the toolchain's translation validator and
   liveness. *)

open Bv_pipeline
open Machine_state

(* ------------------------------------------------------------------ ring *)

let test_ring_fifo () =
  let r = Ring.create 4 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  for k = 0 to 9 do
    Ring.push r k
  done;
  (* pushed past the initial capacity: the backing array grew *)
  Alcotest.(check int) "length" 10 (Ring.length r);
  Alcotest.(check int) "front" 0 (Ring.front r);
  Alcotest.(check int) "get 7" 7 (Ring.get r 7);
  Alcotest.(check int) "pop" 0 (Ring.pop r);
  Alcotest.(check int) "pop" 1 (Ring.pop r);
  Ring.push r 10;
  Ring.push r 11;
  (* head has rotated; order must survive wraparound *)
  Alcotest.(check (list int))
    "fifo order across wrap"
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.init (Ring.length r) (Ring.get r));
  Ring.drop_tail r 8;
  Alcotest.(check (list int)) "drop_tail" [ 2; 3 ]
    (List.init (Ring.length r) (Ring.get r))

let test_ring_limit () =
  let r = Ring.create ~limit:3 8 in
  Alcotest.(check int) "logical capacity" 3 (Ring.capacity r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check bool) "not full" false (Ring.is_full r);
  Ring.push r 3;
  Alcotest.(check bool) "full at limit" true (Ring.is_full r);
  ignore (Ring.pop r);
  Alcotest.(check bool) "pop reopens" false (Ring.is_full r)

(* --------------------------------------------------------------- release *)

let test_release_occupancy () =
  let c = Release.create () in
  Alcotest.(check int) "empty" 0 (Release.occupancy c);
  Release.schedule c ~at:5;
  Release.schedule c ~at:5;
  Release.schedule c ~at:9;
  Alcotest.(check int) "three scheduled" 3 (Release.occupancy c);
  Release.drain c ~now:4;
  Alcotest.(check int) "nothing released before 5" 3 (Release.occupancy c);
  Release.drain c ~now:5;
  Alcotest.(check int) "both at-5 entries released" 1 (Release.occupancy c);
  (* drain is idempotent per cycle *)
  Release.drain c ~now:5;
  Alcotest.(check int) "re-drain is a no-op" 1 (Release.occupancy c);
  Release.drain c ~now:9;
  Alcotest.(check int) "drained dry" 0 (Release.occupancy c);
  (* the heap has no horizon: a release far past any cache latency
     waits for its cycle *)
  Release.schedule c ~at:1_000_000;
  Release.drain c ~now:999_999;
  Alcotest.(check int) "far-future release pending" 1 (Release.occupancy c);
  Release.drain c ~now:1_000_000;
  Alcotest.(check int) "far-future release released" 0 (Release.occupancy c)

(* The heap against [Release_ref], the calendar it replaced, given a
   horizon above every drawn latency: random interleavings of [schedule]
   (latency 1-400 from the current cycle) and [drain] (the cycle
   advancing by 0-500, as a stall skip jumps). After every operation
   the occupancy and the next release must be the calendar's. *)
type release_op = Schedule of int | Drain of int

let prop_release_heap =
  let op =
    QCheck2.Gen.(
      frequency
        [ (3, map (fun lat -> Schedule lat) (int_range 1 400));
          (2, map (fun dt -> Drain dt) (int_range 0 500))
        ])
  in
  let print =
    QCheck2.Print.list (function
      | Schedule lat -> Printf.sprintf "schedule +%d" lat
      | Drain dt -> Printf.sprintf "drain +%d" dt)
  in
  QCheck2.Test.make ~count:500 ~print
    ~name:"release heap = calendar reference (occupancy, next release)"
    QCheck2.Gen.(list_size (int_range 1 300) op)
    (fun ops ->
      let heap = Release.create () in
      let calendar = Release_ref.create ~horizon:401 in
      let now = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Schedule lat ->
            Release.schedule heap ~at:(!now + lat);
            Release_ref.schedule calendar ~at:(!now + lat)
          | Drain dt ->
            now := !now + dt;
            Release.drain heap ~now:!now;
            Release_ref.drain calendar ~now:!now);
          Release.occupancy heap = Release_ref.occupancy calendar
          && Release.next_release heap = Release_ref.next_release calendar)
        ops)

(* MSHRs and store-buffer entries beyond a run's peak occupancy change
   nothing: raising [mshrs] from 64 to 128 and 1,024, or [store_buffer]
   from 16 to 1,024, leaves every golden config's stats and
   architectural digest as they are. Four MSHRs do change [runahead_w8],
   so the occupancy is live in these runs. *)
let test_release_headroom () =
  let outcome config image =
    let r = Machine.run ~config image in
    (r.Machine.stats, r.Machine.arch_digest)
  in
  List.iter
    (fun (name, (config : Config.t), image) ->
      let image = Lazy.force image in
      let base = outcome config image in
      List.iter
        (fun (what, config) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: same stats and digest" name what)
            true
            (outcome config image = base))
        [ ("mshrs 128", { config with Config.mshrs = 128 });
          ("mshrs 1024", { config with Config.mshrs = 1024 });
          ("store_buffer 1024", { config with Config.store_buffer = 1024 })
        ];
      if name = "runahead_w8" then
        Alcotest.(check bool)
          (Printf.sprintf "%s, mshrs 4: cycles change" name)
          true
          ((fst (outcome { config with Config.mshrs = 4 } image))
             .Stats.cycles
          <> (fst base).Stats.cycles))
    Golden_configs.cases

(* ---------------------------------------------------------- static table *)

let static_image =
  lazy
    (let spec =
       Bv_workloads.Spec.make ~name:"hotpath" ~suite:Bv_workloads.Spec.Int_2006
         ~seed:3
         ~branch_classes:
           [ Bv_workloads.Spec.cls ~count:2 ~taken_rate:0.5
               ~predictability:0.8 ()
           ]
         ~inner_n:8 ~reps:1 ()
     in
     Bv_ir.Layout.program (Bv_workloads.Gen.generate ~input:1 spec))

let fresh_state () =
  Machine_state.create ~config:Config.four_wide (Lazy.force static_image)

(* A [cmov], the one instruction that reads three registers (its
   condition, its destination and its source): no generated image holds
   one. *)
let cmov_image =
  lazy
    (Bv_ir.Layout.program
       (Bv_ir.Asm.program
          {|
proc main
entry:
  mov    r1, #1
  mov    r2, #5
  cmp.eq r3, r1, #1
  cmov.nz r3, r2, r1
  halt
|}))

(* The pre-decoded table must agree with the instruction-level decode
   helpers it replaced, for every pc of the test image, the [cmov] image
   and the four golden images. *)
let test_static_table_agrees () =
  let fu_idx fu =
    match fu with
    | Bv_isa.Instr.Fu_int -> fu_int
    | Bv_isa.Instr.Fu_fp -> fu_fp
    | Bv_isa.Instr.Fu_mem -> fu_mem
    | Bv_isa.Instr.Fu_branch -> fu_branch
    | Bv_isa.Instr.Fu_none -> fu_none
  in
  let three_uses = ref 0 in
  let check_table st =
    Array.iteri
      (fun pc instr ->
        let si = st.static.(pc) in
        if Array.length si.s_uses = 3 then incr three_uses;
        Alcotest.(check int)
          (Printf.sprintf "fu class @%d" pc)
          (fu_idx (Bv_isa.Instr.fu_class instr))
          si.s_fu;
        let dst =
          match Bv_isa.Instr.defs instr with
          | r :: _ -> Bv_isa.Reg.index r
          | [] -> -1
        in
        Alcotest.(check int) (Printf.sprintf "dst @%d" pc) dst si.s_dst;
        let uses = List.map Bv_isa.Reg.index (Bv_isa.Instr.uses instr) in
        Alcotest.(check (list int)) (Printf.sprintf "uses @%d" pc) uses
          (Array.to_list si.s_uses);
        (* the issue check's three slots: the uses padded with the
           sentinel register index [Reg.count] *)
        let padded =
          List.filteri
            (fun k _ -> k < 3)
            (uses @ List.init 3 (fun _ -> Bv_isa.Reg.count))
        in
        Alcotest.(check (list int))
          (Printf.sprintf "padded uses @%d" pc)
          padded
          [ si.s_use0; si.s_use1; si.s_use2 ];
        let mem_kind =
          match instr with
          | Bv_isa.Instr.Load _ -> 1
          | Bv_isa.Instr.Store _ -> 2
          | _ -> 0
        in
        Alcotest.(check int) (Printf.sprintf "mem kind @%d" pc) mem_kind
          si.s_mem_kind;
        Alcotest.(check bool)
          (Printf.sprintf "halt @%d" pc)
          (instr = Bv_isa.Instr.Halt)
          si.s_is_halt;
        (* a branch/resolve's slot names its own site id in the stats *)
        let site =
          match instr with
          | Bv_isa.Instr.Branch { id; _ } | Bv_isa.Instr.Resolve { id; _ } ->
            Some id
          | _ -> None
        in
        Alcotest.(check (option int))
          (Printf.sprintf "site slot @%d" pc)
          site
          (if si.s_slot < 0 then None
           else Some st.stats.Stats.sites.(si.s_slot)))
      st.code
  in
  check_table (fresh_state ());
  check_table
    (Machine_state.create ~config:Config.four_wide (Lazy.force cmov_image));
  List.iter
    (fun (_, config, image) ->
      check_table (Machine_state.create ~config (Lazy.force image)))
    Golden_configs.cases;
  Alcotest.(check bool) "some instruction fills all three slots" true
    (!three_uses > 0)

(* The padded use slots' sentinel, [ready.(Reg.count)], is never
   written: it reads 0 after every cycle of full runs of the four golden
   configs, whose flushes rebuild the scoreboard. The loop steps
   [Machine.run]'s cycle, so it ends on the same cycle count. *)
let test_sentinel_ready () =
  List.iter
    (fun (name, config, image) ->
      let image = Lazy.force image in
      let st = Machine_state.create ~config image in
      let written = ref 0 in
      while not st.finished do
        Backend.process_completions st;
        if not st.finished then begin
          Scoreboard.issue st;
          Frontend.fetch_group st;
          Spec_state.log_trim st;
          st.now <- st.now + 1;
          st.stats.Stats.cycles <- st.now
        end;
        if st.ready.(Bv_isa.Reg.count) <> 0 then incr written
      done;
      Alcotest.(check int)
        (name ^ ": cycles with the sentinel written")
        0 !written;
      Alcotest.(check int) (name ^ ": a full run")
        (Machine.run ~config image).Machine.stats.Stats.cycles
        st.stats.Stats.cycles)
    Golden_configs.cases

(* ----------------------------------------------------------- handle pool *)

(* The pending deque drops completed and squashed entries in place and
   keeps the rest in order, across a wrapped head. *)
let test_compact_pending () =
  let st = fresh_state () in
  st.now <- 10;
  for _ = 1 to 5 do
    Ring.push st.pending 0;
    ignore (Ring.pop st.pending)
  done;
  let row ~complete ~squashed =
    let h = alloc_inflight st in
    st.i_complete_cycle.(h) <- complete;
    st.i_squashed.(h) <- squashed;
    Ring.push st.pending h;
    h
  in
  let a = row ~complete:12 ~squashed:0 in
  ignore (row ~complete:10 ~squashed:0);
  ignore (row ~complete:max_int ~squashed:1);
  let d = row ~complete:max_int ~squashed:0 in
  ignore (row ~complete:3 ~squashed:0);
  let f = row ~complete:11 ~squashed:0 in
  compact_pending st;
  Alcotest.(check (list int)) "in flight, in order" [ a; d; f ]
    (List.init (Ring.length st.pending) (Ring.get st.pending))

let test_pool_recycle () =
  let st = fresh_state () in
  let h0 = alloc_inflight st in
  let h1 = alloc_inflight st in
  Alcotest.(check bool) "distinct rows" true (h0 <> h1);
  st.c_kind.(h0) <- ck_branch;
  st.c_site.(h0) <- 7;
  recycle_inflight st h0;
  (* the freed row comes back first (LIFO), with its control columns
     cleared so the next occupant starts from a non-control row *)
  let h2 = alloc_inflight st in
  Alcotest.(check int) "freed row reused" h0 h2;
  Alcotest.(check int) "kind cleared" ck_none st.c_kind.(h2);
  Alcotest.(check int) "site cleared" (-1) st.c_site.(h2)

let test_pool_grows () =
  let st = fresh_state () in
  (* claim more rows than the initial pool size; all must be distinct *)
  let n = 200 in
  let hs = Array.init n (fun _ -> alloc_inflight st) in
  let sorted = Array.copy hs in
  Array.sort compare sorted;
  let distinct = ref true in
  for k = 1 to n - 1 do
    if sorted.(k) = sorted.(k - 1) then distinct := false
  done;
  Alcotest.(check bool) "all handles distinct" true !distinct;
  Array.iter (recycle_inflight st) hs;
  (* every row recycled: the next [n] allocations reuse them *)
  let reused = Array.init n (fun _ -> alloc_inflight st) in
  Array.sort compare reused;
  Alcotest.(check bool) "free list hands rows back" true (reused = sorted)

(* ------------------------------------------------------ allocation gate *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words a run allocates per simulated cycle, net of
   [Machine_state.create] (and [Acct.create] on an accounted run) on the
   same image and config: creation builds per-run tables, the remainder
   is the cycle loop's. For a fixed binary the count is deterministic. *)
let words_per_cycle ?on_cycle ~accounted config image =
  let acct () =
    if accounted then Some (Acct.create image.Bv_ir.Layout.code) else None
  in
  let setup () = ignore (Machine_state.create ~config ?acct:(acct ()) image) in
  let cycles = ref 0 in
  let run () =
    let r = Machine.run ?on_cycle ?acct:(acct ()) ~config image in
    cycles := r.Machine.stats.Stats.cycles
  in
  let created = minor_words setup in
  let ran = minor_words run in
  (ran -. created) /. Float.of_int !cycles

(* The simulated cycle allocates nothing: unobserved, accounted and
   stepped runs of the four golden configs, plus the perfect predictor
   (whose oracle walks the resolution slice at every predict) on the
   decomposed image. Evented runs are exempt: [on_event] receives a
   freshly built event by design. *)
let test_cycle_allocation () =
  let no_op ~cycle:_ ~stats:_ ~dbb_occupancy:_ = () in
  let decomposed = List.assoc "decomposed_w4" Golden_configs.images in
  let configs =
    Golden_configs.cases
    @ [ ( "decomposed_w4/perfect",
          Config.make ~predictor:Bv_bpred.Kind.Perfect ~width:4 (),
          decomposed )
      ]
  in
  let over =
    List.concat_map
      (fun (name, config, image) ->
        let image = Lazy.force image in
        List.filter_map
          (fun (mode, w) ->
            let reading = Printf.sprintf "%s %s: %.4f" name mode w in
            print_endline reading;
            if w < 0.05 then None else Some reading)
          [ ("unobserved", words_per_cycle ~accounted:false config image);
            ("accounted", words_per_cycle ~accounted:true config image);
            ( "stepped",
              words_per_cycle ~on_cycle:no_op ~accounted:false config image )
          ])
      configs
  in
  Alcotest.(check (list string)) "runs at >= 0.05 minor words/cycle" [] over

(* ------------------------------------------------- per-run tables *)

(* Words [f] allocates in the major heap. The minor heap is emptied
   first, so [f]'s small blocks stay young and only what goes to the
   major heap directly is counted: the large tables. For a fixed binary
   the count is deterministic. *)
let major_words f =
  Gc.minor ();
  let _, _, w0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, _, w1 = Gc.counters () in
  w1 -. w0

(* Every profile and every simulation builds a predictor and a cache
   hierarchy afresh, and every major collection marks each word of an
   [int array]: so bulk tables live in [Bytes] or a [Bigarray], and
   these ceilings, just above each reading when the gate was set, keep
   them there. With [int array] tables the readings were 16,385 words
   (bimodal), 32,769 (gshare), 98,317 (tournament), 20,482 (TAGE),
   41,987 (ISL-TAGE) and 211,990 (the hierarchy); with a dirty byte per
   cache way the hierarchy read 8,732; and with its data memory an
   [int array], a machine on mcf's image read 555,351. The hierarchy
   now reads 7 words after the tests before it and 24 run alone: its
   eight [Bigarray]s can start a minor collection, which promotes what
   is young. *)
let major_words_when_set =
  [ ("always-not-taken", 0);
    ("always-taken", 0);
    ("bimodal-small", 0);
    ("bimodal", 2_100);
    ("gshare-small", 1_100);
    ("gshare", 4_200);
    ("tournament", 12_300);
    ("perceptron", 1_900);
    ("tage", 4_200);
    ("isl-tage", 9_300);
    ("perfect", 0);
    ("Hierarchy.create ()", 32);
    ("Machine_state.create (mcf)", 19_000)
  ]

(* mcf's REF image, whose data memory holds 527,427 words. *)
let mcf_image =
  lazy
    (let spec = Option.get (Bv_workloads.Suites.find "mcf") in
     Bv_ir.Layout.program (Bv_workloads.Gen.generate ~input:1 spec))

let test_table_allocation () =
  let readings =
    List.map
      (fun k ->
        (Bv_bpred.Kind.name k, major_words (fun () -> Bv_bpred.Kind.create k)))
      Bv_bpred.Kind.all
    @ [ ( "Hierarchy.create ()",
          major_words (fun () -> Bv_cache.Hierarchy.create ()) );
        ( "Machine_state.create (mcf)",
          let image = Lazy.force mcf_image in
          Alcotest.(check bool)
            "mcf's data memory holds at least 2^19 words" true
            (image.Bv_ir.Layout.program.Bv_ir.Program.mem_words >= 1 lsl 19);
          major_words (fun () ->
              Machine_state.create ~config:Config.four_wide image) )
      ]
  in
  let over =
    List.filter_map
      (fun (what, words) ->
        let ceiling = List.assoc what major_words_when_set in
        let reading =
          Printf.sprintf "%s: %.0f major words (ceiling %d)" what words ceiling
        in
        print_endline reading;
        if words <= Float.of_int ceiling then None else Some reading)
      readings
  in
  Alcotest.(check (list string)) "tables over their major-heap ceiling" [] over

(* ------------------------------------------------ analysis allocation *)

(* The 55 TRAIN programs at a quarter of their repetitions (as the
   toolchain benchmark runs them), each with its selected candidates and
   its decomposed-branch transform: profile with the tournament
   predictor, select, transform. *)
let analysis_corpus =
  lazy
    (List.map
       (fun spec ->
         let reps = spec.Bv_workloads.Spec.reps in
         let spec =
           { spec with
             Bv_workloads.Spec.reps =
               max 2 (Float.to_int (Float.round (Float.of_int reps /. 4.0)))
           }
         in
         let prog = Bv_workloads.Gen.generate ~input:0 spec in
         let profile =
           Bv_profile.Profile.collect
             ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
             (Bv_ir.Layout.program (Bv_ir.Program.copy prog))
         in
         let candidates =
           (Vanguard.Select.select ~profile prog).Vanguard.Select.candidates
         in
         let transformed =
           (Vanguard.Transform.apply ~exit_live:Bv_workloads.Gen.live_at_exit
              ~candidates prog)
             .Vanguard.Transform.program
         in
         (prog, candidates, transformed))
       Bv_workloads.Suites.all)

(* Minor words the analyses allocate over that corpus, in millions,
   pinned just above their values when each gate was set. For a fixed
   binary the counts are deterministic.
   - The translation validator ([Equiv.verify] + [verify_self]): 21.25 M
     (27.69 M before the indexed CFG; 91.33 M before register sets
     became bitsets, entry symbols int-keyed and label lookups indexed).
   - [Liveness.compute], building its graph included: 1.55 M (1.57 M;
     6.23 M).
   - [Transform.apply], its scheduling and speculation post-pass
     included: 15.09 M (29.78 M before the indexed CFG, the array
     dataflow engine and the ready-list scheduler).
   - [Costmodel.analyze] without and with interprocedural summaries (the
     summaries computed outside the count): 12.79 M and 12.86 M
     (18.05 M and 18.11 M). *)
let equiv_words_when_set = 21.3
let liveness_words_when_set = 1.56
let transform_words_when_set = 15.2
let costmodel_words_when_set = 12.9
let costmodel_interproc_words_when_set = 13.0

let test_analysis_allocation () =
  let corpus = Lazy.force analysis_corpus in
  let scratch = Vanguard.Transform.default_temp_pool in
  let exit_live = Bv_workloads.Gen.live_at_exit in
  let equiv =
    minor_words (fun () ->
        List.iter
          (fun (original, _, transformed) ->
            ignore
              (Bv_analysis.Equiv.verify ~scratch ~exit_live ~original
                 transformed);
            ignore
              (Bv_analysis.Equiv.verify_self ~scratch ~exit_live
                 transformed))
          corpus)
  in
  let transform =
    minor_words (fun () ->
        List.iter
          (fun (original, candidates, _) ->
            ignore (Vanguard.Transform.apply ~exit_live ~candidates original))
          corpus)
  in
  let costmodel summaries =
    let inputs =
      List.map (fun (original, _, _) -> (original, summaries original)) corpus
    in
    minor_words (fun () ->
        List.iter
          (fun (original, summaries) ->
            ignore
              (Bv_analysis.Costmodel.analyze ~exit_live ?summaries original))
          inputs)
  in
  let costmodel_plain = costmodel (fun _ -> None) in
  let costmodel_interproc =
    costmodel (fun p -> Some (Bv_analysis.Summary.compute p))
  in
  let exit_live = Bv_ir.Liveness.Regset.of_list exit_live in
  let liveness =
    minor_words (fun () ->
        List.iter
          (fun (original, _, _) ->
            List.iter
              (fun proc ->
                ignore (Bv_ir.Liveness.compute ~exit_live (Bv_ir.Cfg.make proc)))
              original.Bv_ir.Program.procs)
          corpus)
  in
  let over =
    List.filter_map
      (fun (what, words, ceiling) ->
        let reading =
          Printf.sprintf "%s: %.2f M minor words (ceiling %.2f M)" what
            (words /. 1e6) ceiling
        in
        print_endline reading;
        if words /. 1e6 <= ceiling then None else Some reading)
      [ ("Equiv.verify + verify_self", equiv, equiv_words_when_set);
        ("Liveness.compute", liveness, liveness_words_when_set);
        ("Transform.apply", transform, transform_words_when_set);
        ("Costmodel.analyze", costmodel_plain, costmodel_words_when_set);
        ( "Costmodel.analyze ~summaries",
          costmodel_interproc,
          costmodel_interproc_words_when_set )
      ]
  in
  Alcotest.(check (list string))
    "analyses over their allocation ceiling" [] over

(* ------------------------------------------------------ stall-skip gate *)

(* Stall skipping is what makes a memory-bound run cheap, and a change
   that stops it still passes every byte-identity check: a stepped run
   gives the same result, only slower. So the share of cycles each golden
   config steps is pinned here: the percentage an unobserved run stepped
   when the gate was set, with 1 point of headroom. Deterministic for a
   given model; lower it when a change skips more. *)
let stepped_pct_when_set =
  [ ("plain_w4", 68.67);
    ("decomposed_w4", 70.70);
    ("runahead_w8", 82.24);
    ("decomposed_runahead_w8", 25.60)
  ]

(* Unobserved, accounted and evented runs skip the same cycles (no event
   fires in a skippable cycle, and accounting charges a stretch in closed
   form); an [on_cycle] run steps every cycle. *)
let test_stall_skip_rate () =
  let no_op ~cycle:_ ~stats:_ ~dbb_occupancy:_ = () in
  let failures =
    List.concat_map
      (fun (name, config, image) ->
        let image = Lazy.force image in
        let ceiling = List.assoc name stepped_pct_when_set +. 1.0 in
        let acct () = Acct.create image.Bv_ir.Layout.code in
        let stepped_pct mode (r : Machine.result) =
          let cycles = r.Machine.stats.Stats.cycles in
          let stepped = cycles - r.Machine.skipped_cycles in
          let pct = 100.0 *. Float.of_int stepped /. Float.of_int cycles in
          let reading =
            Printf.sprintf "%s %s: stepped %d / %d cycles = %.2f%%" name mode
              stepped cycles pct
          in
          print_endline reading;
          if pct <= ceiling then None
          else Some (Printf.sprintf "%s (ceiling %.2f%%)" reading ceiling)
        in
        let unobserved = stepped_pct "unobserved" (Machine.run ~config image) in
        let accounted =
          stepped_pct "accounted" (Machine.run ~acct:(acct ()) ~config image)
        in
        let evented =
          stepped_pct "evented" (Machine.run ~on_event:ignore ~config image)
        in
        let skipped =
          (Machine.run ~on_cycle:no_op ~config image).Machine.skipped_cycles
        in
        let on_cycle =
          if skipped = 0 then None
          else Some (Printf.sprintf "%s on_cycle: skipped %d cycles" name skipped)
        in
        List.filter_map Fun.id [ unobserved; accounted; evented; on_cycle ])
      Golden_configs.cases
  in
  Alcotest.(check (list string)) "runs over their stepped ceiling" [] failures

let () =
  Alcotest.run "bv_hotpath"
    [ ( "ring",
        [ Alcotest.test_case "fifo across growth and wrap" `Quick
            test_ring_fifo;
          Alcotest.test_case "limit vs backing" `Quick test_ring_limit
        ] );
      ( "release",
        [ Alcotest.test_case "occupancy heap" `Quick test_release_occupancy;
          QCheck_alcotest.to_alcotest prop_release_heap;
          Alcotest.test_case "MSHR and store-buffer headroom" `Quick
            test_release_headroom
        ] );
      ( "static table",
        [ Alcotest.test_case "agrees with instruction decode" `Quick
            test_static_table_agrees;
          Alcotest.test_case "sentinel ready entry stays 0" `Quick
            test_sentinel_ready
        ] );
      ( "pool",
        [ Alcotest.test_case "recycle clears control columns" `Quick
            test_pool_recycle;
          Alcotest.test_case "growth and reuse" `Quick test_pool_grows;
          Alcotest.test_case "pending compaction" `Quick test_compact_pending
        ] );
      ( "allocation",
        [ Alcotest.test_case "no allocation per simulated cycle" `Quick
            test_cycle_allocation;
          Alcotest.test_case "analysis allocation" `Quick
            test_analysis_allocation;
          Alcotest.test_case "per-run tables off the scanned heap" `Quick
            test_table_allocation
        ] );
      ( "stall skipping",
        [ Alcotest.test_case "stepped share of cycles" `Quick
            test_stall_skip_rate
        ] )
    ]
