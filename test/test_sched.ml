open Bv_isa
open Bv_ir

let r = Reg.make
let add d a b = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Reg (r b) }
let addi d a v = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Imm v }
let ld d b o = Instr.Load { dst = r d; base = r b; offset = o; speculative = false }
let st s b o = Instr.Store { src = r s; base = r b; offset = o }

let position instr order =
  let rec go i = function
    | [] -> Alcotest.failf "missing %s" (Instr.to_string instr)
    | x :: _ when x == instr -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 order

let sched body = Bv_sched.Sched.schedule_body ~term:Term.Halt body

let test_is_permutation () =
  let body = [ ld 1 0 0; add 2 1 1; ld 3 0 8; addi 4 3 1; st 4 0 16 ] in
  let out = sched body in
  Alcotest.(check int) "same length" (List.length body) (List.length out);
  List.iter
    (fun i ->
      Alcotest.(check bool) "present" true (List.exists (fun j -> i == j) out))
    body

let test_raw_preserved () =
  let producer = ld 1 0 0 in
  let consumer = add 2 1 1 in
  let out = sched [ producer; consumer ] in
  Alcotest.(check bool) "producer first" true
    (position producer out < position consumer out)

let test_loads_hoisted () =
  (* independent load placed late in the original order should move up
     ahead of cheap ALU work *)
  let a1 = addi 2 2 1 and a2 = addi 2 2 2 and a3 = addi 2 2 3 in
  let late_load = ld 3 0 0 in
  let out = sched [ a1; a2; a3; late_load ] in
  Alcotest.(check int) "load first" 0 (position late_load out)

let test_store_ordering () =
  let s1 = st 1 0 0 in
  let l1 = ld 2 0 0 in
  let s2 = st 2 0 8 in
  let out = sched [ s1; l1; s2 ] in
  Alcotest.(check bool) "load after older store" true
    (position s1 out < position l1 out);
  Alcotest.(check bool) "store after older load" true
    (position l1 out < position s2 out)

let test_alias_oracle_relaxes_barrier () =
  (* with a may-alias oracle disproving every pair, the load is free to
     hoist past the older store; an all-true oracle keeps the barrier *)
  let s1 = st 1 0 0 in
  let l1 = ld 2 0 8 in
  let chain = [ add 3 2 2; add 4 3 3 ] in
  let body = [ s1; l1 ] @ chain in
  let relaxed =
    Bv_sched.Sched.schedule_body ~may_alias:(fun _ _ -> false) ~term:Term.Halt
      body
  in
  Alcotest.(check bool) "disjoint load hoists" true
    (position l1 relaxed < position s1 relaxed);
  let strict =
    Bv_sched.Sched.schedule_body ~may_alias:(fun _ _ -> true) ~term:Term.Halt
      body
  in
  Alcotest.(check bool) "aliasing load stays put" true
    (position s1 strict < position l1 strict);
  (* the conservative oracle must reproduce the default schedule exactly *)
  Alcotest.(check bool) "all-true oracle = default" true
    (List.for_all2 ( == ) (sched body) strict)

let test_load_load_reorder_allowed () =
  (* two independent loads may swap: the second feeds a longer chain *)
  let l1 = ld 1 0 0 in
  let l2 = ld 2 0 8 in
  let chain = [ add 3 2 2; add 4 3 3; add 5 4 4 ] in
  let out = sched ([ l1; l2 ] @ chain) in
  Alcotest.(check bool) "critical load first" true
    (position l2 out <= position l1 out)

let test_war_waw () =
  let use_old = add 2 1 1 in
  let redefine = addi 1 0 5 in
  let out = sched [ use_old; redefine ] in
  Alcotest.(check bool) "WAR preserved" true
    (position use_old out < position redefine out);
  let w1 = addi 1 0 1 in
  let w2 = addi 1 0 2 in
  let out = sched [ w1; w2 ] in
  Alcotest.(check bool) "WAW preserved" true (position w1 out < position w2 out)

let test_term_source_sinks () =
  (* the compare feeding the block terminator should not block earlier
     independent loads *)
  let cmp = Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 } in
  let cond_load = ld 4 0 0 in
  let indep = ld 6 0 64 in
  let out =
    Bv_sched.Sched.schedule_body
      ~term:(Term.Branch { on = true; src = r 5; taken = "a"; not_taken = "b"; id = 1 })
      [ cond_load; cmp; indep ]
  in
  Alcotest.(check int) "cmp last" 2 (position cmp out)

let test_critical_path () =
  Alcotest.(check int) "empty" 0 (Bv_sched.Sched.critical_path_cycles []);
  Alcotest.(check int) "single load" 4
    (Bv_sched.Sched.critical_path_cycles [ ld 1 0 0 ]);
  Alcotest.(check int) "load + consumer" 5
    (Bv_sched.Sched.critical_path_cycles [ ld 1 0 0; add 2 1 1 ]);
  Alcotest.(check int) "independent stay parallel" 4
    (Bv_sched.Sched.critical_path_cycles [ ld 1 0 0; ld 2 0 8 ]);
  Alcotest.(check int) "chain of adds" 3
    (Bv_sched.Sched.critical_path_cycles [ addi 1 0 1; add 2 1 1; add 3 2 2 ])

let test_schedule_program_runs () =
  let blocks =
    [ Block.make ~label:"e"
        ~body:[ addi 1 0 3; ld 2 1 0; add 3 2 2 ]
        ~term:Term.Halt
    ]
  in
  let prog = Program.make ~main:"m" ~mem_words:8 [ Proc.make ~name:"m" blocks ] in
  Bv_sched.Sched.schedule_program prog;
  Validate.check_exn prog

(* The scheduler the ready list replaced, verbatim: a [Hashtbl] dependence
   builder and a ready set refiltered from every instruction each cycle.
   The differential property below holds the ready-list scheduler to its
   order and critical paths. *)
module Sched_ref = struct
  let is_mem = function Instr.Load _ | Instr.Store _ -> true | _ -> false
  let is_store = function Instr.Store _ -> true | _ -> false
  let default_latency = Bv_sched.Sched.default_latency

  let build_preds ?may_alias ~latency instrs =
    let n = Array.length instrs in
    let preds = Array.make n [] in
    let add_edge ~from ~to_ ~delay =
      preds.(to_) <- (from, delay) :: preds.(to_)
    in
    let last_def = Hashtbl.create 16 in
    (* reg index -> instr *)
    let last_uses = Hashtbl.create 16 in
    (* reg index -> instr list since last def *)
    let last_store = ref None in
    let loads_since_store = ref [] in
    for i = 0 to n - 1 do
      let ins = instrs.(i) in
      (* RAW *)
      List.iter
        (fun r ->
          match Hashtbl.find_opt last_def (Reg.index r) with
          | Some j -> add_edge ~from:j ~to_:i ~delay:(latency instrs.(j))
          | None -> ())
        (Instr.uses ins);
      (* WAR and WAW: same-cycle start is fine in a machine with register
         read-before-write, but keep a 0-delay order edge for determinism. *)
      List.iter
        (fun r ->
          let ri = Reg.index r in
          (match Hashtbl.find_opt last_uses ri with
          | Some users -> List.iter (fun j -> add_edge ~from:j ~to_:i ~delay:0) users
          | None -> ());
          (match Hashtbl.find_opt last_def ri with
          | Some j -> add_edge ~from:j ~to_:i ~delay:1
          | None -> ()))
        (Instr.defs ins);
      (* Memory ordering. *)
      (match may_alias with
      | None ->
        (* Stores are barriers. *)
        if is_mem ins then begin
          (match !last_store with
          | Some j -> add_edge ~from:j ~to_:i ~delay:1
          | None -> ());
          if is_store ins then begin
            List.iter (fun j -> add_edge ~from:j ~to_:i ~delay:1)
              !loads_since_store;
            last_store := Some i;
            loads_since_store := []
          end
          else loads_since_store := i :: !loads_since_store
        end
      | Some alias ->
        (* Order every prior memory op that may alias, when at least one of
           the pair writes. *)
        if is_mem ins then
          for j = 0 to i - 1 do
            if
              is_mem instrs.(j)
              && (is_store ins || is_store instrs.(j))
              && alias instrs.(j) ins
            then add_edge ~from:j ~to_:i ~delay:1
          done);
      (* Bookkeeping after edges are drawn. *)
      List.iter
        (fun r ->
          let ri = Reg.index r in
          let users = Option.value (Hashtbl.find_opt last_uses ri) ~default:[] in
          Hashtbl.replace last_uses ri (i :: users))
        (Instr.uses ins);
      List.iter
        (fun r ->
          let ri = Reg.index r in
          Hashtbl.replace last_def ri i;
          Hashtbl.replace last_uses ri [])
        (Instr.defs ins)
    done;
    preds

  (* Critical-path height: cycles from this instruction's start to the end of
     the block. Terminator operands count as consumed at the end. *)
  let heights ~latency ~term instrs preds =
    let n = Array.length instrs in
    let succs = Array.make n [] in
    Array.iteri
      (fun i ps -> List.iter (fun (j, d) -> succs.(j) <- (i, d) :: succs.(j)) ps)
      preds;
    let term_uses =
      List.map Reg.index
        (match term with
        | Term.Branch { src; _ } | Term.Resolve { src; _ } -> [ src ]
        | Term.Jump _ | Term.Predict _ | Term.Call _ | Term.Ret | Term.Halt -> [])
    in
    let h = Array.make n 0 in
    for i = n - 1 downto 0 do
      let lat = latency instrs.(i) in
      let base =
        (* Any def may be live out of the block, so a producer's full latency
           counts towards the block end; terminator sources certainly do. *)
        if
          Instr.defs instrs.(i) <> []
          || List.exists
               (fun r -> List.mem (Reg.index r) term_uses)
               (Instr.uses instrs.(i))
        then lat
        else 1
      in
      let over_succs =
        List.fold_left (fun acc (j, d) -> max acc (d + h.(j))) 0 succs.(i)
      in
      h.(i) <- max base over_succs
    done;
    h

  let schedule_body ?may_alias ?(latency = default_latency) ?(width = 4) ~term
      body =
    let instrs = Array.of_list body in
    let n = Array.length instrs in
    if n <= 1 then body
    else begin
      let preds = build_preds ?may_alias ~latency instrs in
      let h = heights ~latency ~term instrs preds in
      let start_time = Array.make n (-1) in
      let scheduled = Array.make n false in
      let order = ref [] in
      let placed = ref 0 in
      let cycle = ref 0 in
      while !placed < n do
        (* Ready = all predecessors started early enough. *)
        let ready =
          List.filter
            (fun i ->
              (not scheduled.(i))
              && List.for_all
                   (fun (j, d) ->
                     scheduled.(j) && start_time.(j) + d <= !cycle)
                   preds.(i))
            (List.init n Fun.id)
        in
        let ready =
          List.sort
            (fun a b ->
              match Int.compare h.(b) h.(a) with
              | 0 -> Int.compare a b
              | c -> c)
            ready
        in
        let rec take k = function
          | i :: rest when k > 0 ->
            scheduled.(i) <- true;
            start_time.(i) <- !cycle;
            order := i :: !order;
            incr placed;
            take (k - 1) rest
          | _ -> ()
        in
        take width ready;
        incr cycle
      done;
      List.rev_map (fun i -> instrs.(i)) !order
    end

  let critical_path_cycles ?may_alias ?(latency = default_latency) body =
    let instrs = Array.of_list body in
    let n = Array.length instrs in
    if n = 0 then 0
    else begin
      let preds = build_preds ?may_alias ~latency instrs in
      let finish = Array.make n 0 in
      for i = 0 to n - 1 do
        let start =
          List.fold_left
            (fun acc (j, d) -> max acc (finish.(j) - latency instrs.(j) + d))
            0 preds.(i)
        in
        finish.(i) <- start + latency instrs.(i)
      done;
      Array.fold_left max 0 finish
    end
end

(* property: scheduling preserves functional semantics of straight-line code *)
let instr_gen =
  let open QCheck2.Gen in
  let reg = int_range 1 7 in
  oneof
    [ map3 (fun d a v -> addi d a v) reg reg (int_range 0 100);
      map3 (fun d a b -> add d a b) reg reg reg;
      map2 (fun d o -> ld d 0 (o * 8)) reg (int_range 0 7);
      map2 (fun s o -> st s 0 (o * 8)) reg (int_range 0 7)
    ]

let run_straight_line body =
  let prog =
    Program.make ~main:"m" ~mem_words:16
      [ Proc.make ~name:"m" [ Block.make ~label:"e" ~body ~term:Term.Halt ] ]
  in
  let st = Bv_exec.Interp.run (Layout.program prog) in
  (Array.to_list (Array.sub st.Bv_exec.Interp.regs 0 8), Array.to_list st.Bv_exec.Interp.mem)

let prop_schedule_preserves_semantics =
  QCheck2.Test.make ~name:"schedule preserves straight-line semantics"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 25) instr_gen)
    (fun body ->
      let scheduled = Bv_sched.Sched.schedule_body ~term:Term.Halt body in
      run_straight_line body = run_straight_line scheduled)

let prop_schedule_is_permutation =
  QCheck2.Test.make ~name:"schedule is a permutation" ~count:200
    QCheck2.Gen.(list_size (int_range 0 30) instr_gen)
    (fun body ->
      let out = Bv_sched.Sched.schedule_body ~term:Term.Halt body in
      List.length out = List.length body
      && List.for_all (fun i -> List.memq i out) body)

(* ------------------------------------------- ready list = reference *)

(* A may-alias oracle answering at random, but as a pure function of the
   pair's positions in [body], so both schedulers hear the same answers. *)
let random_oracle ~seed body =
  let arr = Array.of_list body in
  let pos i =
    let rec go k = if arr.(k) == i then k else go (k + 1) in
    go 0
  in
  fun a b -> Hashtbl.hash (seed, pos a, pos b) land 1 = 0

(* The same order, instruction for instruction, and the same critical
   path as the reference, at every width from 1 to 8, with no oracle,
   with a random one and with the alias analysis' [may_alias]. *)
let matches_reference ~seed ~may_alias ~term body =
  List.for_all
    (fun may_alias ->
      Bv_sched.Sched.critical_path_cycles ?may_alias body
      = Sched_ref.critical_path_cycles ?may_alias body
      && List.for_all
           (fun width ->
             let got = Bv_sched.Sched.schedule_body ?may_alias ~width ~term body in
             let want = Sched_ref.schedule_body ?may_alias ~width ~term body in
             List.length got = List.length want && List.for_all2 ( == ) got want)
           [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ None; Some (random_oracle ~seed body); Some may_alias ]

let program_matches_reference ~seed prog =
  List.for_all
    (fun proc ->
      let may_alias =
        Bv_analysis.Alias.may_alias (Bv_analysis.Alias.analyze (Cfg.make proc))
      in
      List.for_all
        (fun b ->
          matches_reference ~seed ~may_alias ~term:b.Block.term b.Block.body)
        proc.Proc.blocks)
    prog.Program.procs

let prop_ready_list_fuzzgen =
  QCheck2.Test.make ~name:"ready-list schedule = quadratic reference (fuzzgen)"
    ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      program_matches_reference ~seed (Bv_workloads.Fuzzgen.generate ~seed))

let prop_ready_list_straight_line =
  QCheck2.Test.make
    ~name:"ready-list schedule = quadratic reference (straight line)"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) (list_size (int_range 0 30) instr_gen))
    (fun (seed, body) ->
      matches_reference ~seed ~may_alias:(fun _ _ -> true) ~term:Term.Halt body)

(* Every block of the 55 TRAIN programs at a quarter of their outer
   repetitions, before and after the transformation (unscheduled). *)
let test_ready_list_suites () =
  let failed =
    List.filter_map
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
            (Layout.program (Program.copy prog))
        in
        let candidates =
          (Vanguard.Select.select ~profile prog).Vanguard.Select.candidates
        in
        let transformed =
          (Vanguard.Transform.apply ~schedule:false
             ~exit_live:Bv_workloads.Gen.live_at_exit ~candidates prog)
            .Vanguard.Transform.program
        in
        if
          program_matches_reference ~seed:1 prog
          && program_matches_reference ~seed:2 transformed
        then None
        else Some spec.Bv_workloads.Spec.name)
      Bv_workloads.Suites.all
  in
  Alcotest.(check (list string)) "benchmarks with a differing block" [] failed

(* ----------------------------------------------------------- width *)

exception Timed_out

(* A width below one places nothing; it must be refused, not spin. The
   call runs under a 5 s alarm so that a spinning scheduler fails the
   test instead of hanging the suite. *)
let test_width_rejected () =
  let outcome width body =
    let old =
      Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
    in
    ignore (Unix.alarm 5 : int);
    match
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.alarm 0 : int);
          Sys.set_signal Sys.sigalrm old)
        (fun () -> Bv_sched.Sched.schedule_body ~width ~term:Term.Halt body)
    with
    | _ -> "scheduled"
    | exception Invalid_argument _ -> "Invalid_argument"
    | exception Timed_out -> "still running after 5 s"
  in
  Alcotest.(check string) "width 0, three instructions" "Invalid_argument"
    (outcome 0 [ addi 1 0 1; addi 2 0 2; add 3 1 2 ]);
  Alcotest.(check string) "width -1, one instruction" "Invalid_argument"
    (outcome (-1) [ addi 1 0 1 ])

let () =
  Alcotest.run "bv_sched"
    [ ( "ordering",
        [ Alcotest.test_case "permutation" `Quick test_is_permutation;
          Alcotest.test_case "RAW" `Quick test_raw_preserved;
          Alcotest.test_case "loads hoisted" `Quick test_loads_hoisted;
          Alcotest.test_case "memory order" `Quick test_store_ordering;
          Alcotest.test_case "alias oracle" `Quick
            test_alias_oracle_relaxes_barrier;
          Alcotest.test_case "load/load free" `Quick
            test_load_load_reorder_allowed;
          Alcotest.test_case "WAR/WAW" `Quick test_war_waw;
          Alcotest.test_case "terminator source sinks" `Quick
            test_term_source_sinks
        ] );
      ( "critical path",
        [ Alcotest.test_case "lengths" `Quick test_critical_path ] );
      ( "integration",
        [ Alcotest.test_case "whole program" `Quick test_schedule_program_runs ] );
      ( "width",
        [ Alcotest.test_case "below one is refused" `Quick test_width_rejected ]
      );
      ( "ready list",
        [ Alcotest.test_case "55 TRAIN programs, before and after transform"
            `Quick test_ready_list_suites
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_ready_list_fuzzgen; prop_ready_list_straight_line ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_schedule_preserves_semantics; prop_schedule_is_permutation ] )
    ]
