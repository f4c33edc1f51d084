(* Hot-path data structures in isolation: the monomorphic handle Ring,
   the Release occupancy calendars, the pre-decoded static table, the
   struct-of-arrays in-flight pool, and the SoA DBB — everything the
   per-cycle loop leans on for its zero-allocation / O(1) claims. *)

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
  let xs = ref [] in
  Ring.iter r (fun x -> xs := x :: !xs);
  Alcotest.(check (list int))
    "fifo order across wrap"
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.rev !xs)

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

let test_ring_truncate_tail () =
  let r = Ring.create 4 in
  List.iter (Ring.push r) [ 1; 2; 3; 14; 15 ];
  let removed = ref [] in
  Ring.truncate_tail r
    ~keep:(fun x -> x < 10)
    ~removed:(fun x -> removed := x :: !removed);
  Alcotest.(check (list int)) "removed in fifo order" [ 14; 15 ]
    (List.rev !removed);
  Alcotest.(check int) "survivors" 3 (Ring.length r);
  (* keep only bounds the *tail*: an interior non-matching entry stops
     the truncation *)
  let r2 = Ring.create 4 in
  List.iter (Ring.push r2) [ 14; 1; 15 ];
  Ring.truncate_tail r2 ~keep:(fun x -> x < 10) ~removed:(fun _ -> ());
  Alcotest.(check int) "interior entry shields the head" 2 (Ring.length r2)

let test_ring_filter_in_place () =
  let r = Ring.create 4 in
  (* rotate the head first so compaction must handle wraparound *)
  List.iter (Ring.push r) [ 99; 99; 99 ];
  for _ = 1 to 3 do
    ignore (Ring.pop r)
  done;
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5; 6 ];
  Ring.filter_in_place r ~keep:(fun x -> x mod 2 = 0);
  let xs = ref [] in
  Ring.iter r (fun x -> xs := x :: !xs);
  Alcotest.(check (list int)) "kept, order preserved" [ 2; 4; 6 ]
    (List.rev !xs);
  Ring.drop_tail r 1;
  Alcotest.(check int) "drop_tail" 2 (Ring.length r)

(* --------------------------------------------------------------- release *)

let test_release_occupancy () =
  let c = Release.create ~horizon:64 in
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
  (* the calendar is a ring: slots must be reusable past the horizon *)
  Release.schedule c ~at:80;
  Release.drain c ~now:79;
  Alcotest.(check int) "wrapped slot pending" 1 (Release.occupancy c);
  Release.drain c ~now:80;
  Alcotest.(check int) "wrapped slot released" 0 (Release.occupancy c)

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

(* The pre-decoded table must agree with the instruction-level decode
   helpers it replaced, for every pc in the image. *)
let test_static_table_agrees () =
  let st = fresh_state () in
  let fu_idx fu =
    match fu with
    | Bv_isa.Instr.Fu_int -> fu_int
    | Bv_isa.Instr.Fu_fp -> fu_fp
    | Bv_isa.Instr.Fu_mem -> fu_mem
    | Bv_isa.Instr.Fu_branch -> fu_branch
    | Bv_isa.Instr.Fu_none -> fu_none
  in
  Array.iteri
    (fun pc instr ->
      let si = st.static.(pc) in
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
      Alcotest.(check (list int))
        (Printf.sprintf "uses @%d" pc)
        (List.map Bv_isa.Reg.index (Bv_isa.Instr.uses instr))
        (Array.to_list si.s_uses);
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

(* ----------------------------------------------------------- handle pool *)

let test_pool_recycle () =
  let st = fresh_state () in
  let h0 = alloc_inflight st in
  let h1 = alloc_inflight st in
  Alcotest.(check bool) "distinct rows" true (h0 <> h1);
  st.c_kind.(h0) <- ck_branch;
  st.c_site.(h0) <- 7;
  st.c_meta.(h0) <- [| 42 |];
  recycle_inflight st h0;
  (* the freed row comes back first (LIFO), with its control columns
     cleared so the next occupant starts from a non-control row *)
  let h2 = alloc_inflight st in
  Alcotest.(check int) "freed row reused" h0 h2;
  Alcotest.(check int) "kind cleared" ck_none st.c_kind.(h2);
  Alcotest.(check int) "site cleared" (-1) st.c_site.(h2);
  Alcotest.(check bool) "meta cleared" true (st.c_meta.(h2) == no_ctrl_meta)

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

let () =
  Alcotest.run "bv_hotpath"
    [ ( "ring",
        [ Alcotest.test_case "fifo across growth and wrap" `Quick
            test_ring_fifo;
          Alcotest.test_case "limit vs backing" `Quick test_ring_limit;
          Alcotest.test_case "truncate_tail" `Quick test_ring_truncate_tail;
          Alcotest.test_case "filter_in_place" `Quick
            test_ring_filter_in_place
        ] );
      ( "release",
        [ Alcotest.test_case "occupancy calendar" `Quick
            test_release_occupancy
        ] );
      ( "static table",
        [ Alcotest.test_case "agrees with instruction decode" `Quick
            test_static_table_agrees
        ] );
      ( "pool",
        [ Alcotest.test_case "recycle clears control columns" `Quick
            test_pool_recycle;
          Alcotest.test_case "growth and reuse" `Quick test_pool_grows
        ] )
    ]
