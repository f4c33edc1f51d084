(* The memoized experiment DAG: key derivation, crash-resume,
   cross-process cooperation on one store, claims, gc and explain, and
   the worker pool that fans work out over it. Tier-1 semantics for the
   engine under every run path. *)

open Bv_harness

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bv-dag-test.%d.%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i =
    i + nl <= hl && (String.sub hay i nl = needle || at (i + 1))
  in
  at 0

(* ---- keys and counters ------------------------------------------------ *)

let counters_of_json j =
  let open Bv_obs.Json in
  let geti k = match member k j with Some (Int i) -> i | _ -> -1 in
  (geti "hits", geti "misses", geti "stolen", geti "nodes")

let test_hit_miss_counters () =
  with_dir (fun dir ->
      let computes = ref 0 in
      let n =
        Dag.node ~kind:"t" ~inputs:(1, "x") (fun () -> incr computes; 41 + 1)
      in
      let d1 = Dag.create ~dir () in
      Alcotest.(check int) "first eval computes" 42 (Dag.eval d1 n);
      Alcotest.(check int) "second eval memo-hits" 42 (Dag.eval d1 n);
      Alcotest.(check int) "computed once" 1 !computes;
      let c = Dag.counters d1 in
      Alcotest.(check int) "miss counted" 1 c.Dag.misses;
      Alcotest.(check int) "hit counted" 1 c.Dag.hits;
      (* a fresh engine on the same store hits the disk, not the compute *)
      let d2 = Dag.create ~dir () in
      Alcotest.(check int) "store hit" 42 (Dag.eval d2 n);
      Alcotest.(check int) "no recompute" 1 !computes;
      let c2 = Dag.counters d2 in
      Alcotest.(check int) "store hit counted" 1 c2.Dag.hits;
      Alcotest.(check int) "no miss" 0 c2.Dag.misses;
      let h, m, s, nodes = counters_of_json (Dag.counters_json d2) in
      Alcotest.(check (list int)) "counters_json" [ 1; 0; 0; 1 ]
        [ h; m; s; nodes ])

let test_key_sensitivity () =
  let d = Dag.create () in
  let mk inputs = Dag.node ~kind:"k" ~inputs (fun () -> 0) in
  let a1 = mk 1 and a2 = mk 2 in
  Alcotest.(check bool) "inputs change the key" false
    (Dag.key d a1 = Dag.key d a2);
  let fmt = Dag.create ~format:(Dag.code_format + 1) () in
  Alcotest.(check bool) "format stamp mixes in" false
    (Dag.key d a1 = Dag.key fmt a1)

(* ---- crash-resume ----------------------------------------------------- *)

let test_crash_resume () =
  with_dir (fun dir ->
      let computes = ref 0 in
      let nodes () =
        List.init 8 (fun i ->
            Dag.node ~kind:"step"
              ~label:(string_of_int i)
              ~inputs:i
              (fun () -> incr computes; i * i))
      in
      (* a sweep that dies after landing 5 of 8 nodes *)
      let d1 = Dag.create ~dir () in
      List.iteri
        (fun i n -> if i < 5 then ignore (Dag.eval d1 n : int))
        (nodes ());
      Alcotest.(check int) "partial sweep" 5 !computes;
      (* the resumed sweep recomputes only the missing tail *)
      let d2 = Dag.create ~dir () in
      let vs = Pool.map (Dag.eval d2) (nodes ()) in
      Alcotest.(check (list int)) "values in order"
        [ 0; 1; 4; 9; 16; 25; 36; 49 ] vs;
      Alcotest.(check int) "zero clean nodes recomputed" 8 !computes;
      let c = Dag.counters d2 in
      Alcotest.(check int) "5 store hits" 5 c.Dag.hits;
      Alcotest.(check int) "3 misses" 3 c.Dag.misses)

(* ---- determinism ------------------------------------------------------ *)

let test_jobs_deterministic () =
  let nodes () =
    List.init 17 (fun i ->
        Dag.node ~kind:"det" ~inputs:i (fun () ->
            Printf.sprintf "v%d" (i * 3)))
  in
  with_dir (fun dir1 ->
      with_dir (fun dir2 ->
          let serial =
            Pool.map ~jobs:1 (Dag.eval (Dag.create ~dir:dir1 ())) (nodes ())
          in
          let parallel =
            Pool.map ~jobs:4 (Dag.eval (Dag.create ~dir:dir2 ())) (nodes ())
          in
          Alcotest.(check (list string)) "jobs:4 == jobs:1" serial parallel));
  (* no store: still order-preserving *)
  let bare = Pool.map ~jobs:3 (Dag.eval (Dag.create ())) (nodes ()) in
  Alcotest.(check (list string)) "uncached jobs:3 == jobs:1"
    (List.init 17 (fun i -> Printf.sprintf "v%d" (i * 3)))
    bare

(* ---- cross-process cooperation --------------------------------------- *)

let append_mark path line =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s) : int);
  Unix.close fd

let count_marks path =
  if not (Sys.file_exists path) then 0
  else
    In_channel.with_open_text path (fun ic ->
        List.length (In_channel.input_lines ic))

(* Two independent processes sweep the same 8 nodes against one store:
   the claim files must arbitrate so each node is computed exactly once
   between them, and both come back with the full result list. A process
   that wins a claim just after the other stored the node must load it,
   not compute it again; that window is narrow, so the round runs 15
   times, each on a fresh store. *)
let two_processes_round round dir =
  let marks = Filename.concat dir "computes.marks" in
  let nodes () =
    List.init 8 (fun i ->
        Dag.node ~kind:"shared" ~inputs:i (fun () ->
            append_mark marks (string_of_int i);
            (* widen the overlap window so both processes race *)
            Unix.sleepf 0.02;
            i + 100))
  in
  let child () =
    match Unix.fork () with
    | 0 ->
      let ok =
        try
          let d = Dag.create ~dir () in
          Pool.map ~jobs:1 (Dag.eval d) (nodes ())
          = List.init 8 (fun i -> i + 100)
        with _ -> false
      in
      Unix._exit (if ok then 0 else 1)
    | pid -> pid
  in
  let p1 = child () in
  let p2 = child () in
  let status pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _ -> 255
  in
  let what = Printf.sprintf "round %d: %s" round in
  Alcotest.(check int) (what "first process succeeds") 0 (status p1);
  Alcotest.(check int) (what "second process succeeds") 0 (status p2);
  Alcotest.(check int) (what "each node computed exactly once") 8
    (count_marks marks)

let test_two_processes_one_store () =
  for round = 1 to 15 do
    with_dir (two_processes_round round)
  done

(* ---- worker failure --------------------------------------------------- *)

let test_worker_failure () =
  match
    Pool.map ~jobs:2
      (fun i -> if i = 7 then failwith "boom 7" else i)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Pool.Worker_failure { index; message; backtrace = _ } ->
    Alcotest.(check int) "failing index carried" 7 index;
    Alcotest.(check bool) "child exception text carried" true
      (contains message "boom 7")

let test_worker_failure_lowest_index () =
  match
    Pool.map ~jobs:3
      (fun i -> if i = 3 || i = 7 then failwith "bang" else i)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Pool.Worker_failure { index; _ } ->
    Alcotest.(check int) "lowest failing index wins" 3 index

(* A result that cannot be marshalled fails its own item with the
   marshaller's error, and its worker goes on serving the items after
   it. *)
let test_unmarshallable_result () =
  with_dir (fun dir ->
      let marks = Filename.concat dir "items.marks" in
      match
        Pool.map ~jobs:2
          (fun x ->
            append_mark marks (string_of_int x);
            if x = 1 then Some (fun y -> y + x) else None)
          [ 0; 1; 2; 3 ]
      with
      | _ -> Alcotest.fail "expected Worker_failure"
      | exception Pool.Worker_failure { index; message; backtrace = _ } ->
        Alcotest.(check int) "the closure's item" 1 index;
        Alcotest.(check bool)
          (Printf.sprintf "the marshaller's error (%s)" message)
          true
          (contains message "functional value");
        Alcotest.(check int) "every item served" 4 (count_marks marks))

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* A worker killed mid-item fails exactly that item, naming the signal,
   and the other items are still served. *)
let test_worker_killed () =
  with_dir (fun dir ->
      let marks = Filename.concat dir "items.marks" in
      let parent = Unix.getpid () in
      match
        Pool.map ~jobs:2
          (fun i ->
            if i = 2 && Unix.getpid () <> parent then kill_self ();
            append_mark marks (string_of_int i);
            i)
          (List.init 6 Fun.id)
      with
      | _ -> Alcotest.fail "expected Worker_failure"
      | exception Pool.Worker_failure { index; message; backtrace = _ } ->
        Alcotest.(check int) "the killed item" 2 index;
        Alcotest.(check bool)
          (Printf.sprintf "names the signal (%s)" message)
          true
          (contains message "SIGKILL");
        Alcotest.(check int) "the other items served" 5 (count_marks marks))

(* ---- store integrity -------------------------------------------------- *)

exception Timed_out

(* [f ()] under a 5 s alarm, so that an evaluation spinning on a bad
   node fails its test instead of hanging the suite. *)
let within what f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm 5 : int);
  match
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.alarm 0 : int);
        Sys.set_signal Sys.sigalrm old)
      f
  with
  | v -> v
  | exception Timed_out -> Alcotest.failf "%s: still running after 5 s" what

let eval_within what d n = within what (fun () -> Dag.eval d n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let thousands () = Array.init 8 (fun i -> i * 1000)

(* Store a node, rewrite its file with [damage], then evaluate it on a
   fresh engine: the damage must be a miss, logged with its reason, that
   recomputes the right value and overwrites the node. *)
let check_damaged what damage =
  with_dir (fun dir ->
      let computes = ref 0 in
      let n =
        Dag.node ~kind:"integrity" ~inputs:what (fun () ->
            incr computes;
            thousands ())
      in
      let d = Dag.create ~dir () in
      ignore (Dag.eval d n : int array);
      let k = Dag.key d n in
      let path = Filename.concat dir (k ^ ".node") in
      let damaged = damage (read_file path) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc damaged);
      let d2 = Dag.create ~dir () in
      Alcotest.(check (array int)) (what ^ ": right value") (thousands ())
        (eval_within what d2 n);
      Alcotest.(check int) (what ^ ": recomputed") 2 !computes;
      let c = Dag.counters d2 in
      Alcotest.(check (pair int int)) (what ^ ": a miss, not a hit") (0, 1)
        (c.Dag.hits, c.Dag.misses);
      Alcotest.(check bool) (what ^ ": reason logged") true
        (contains
           (read_file (Filename.concat dir "dag.log"))
           ("corrupt " ^ k));
      let d3 = Dag.create ~dir () in
      Alcotest.(check (array int)) (what ^ ": node overwritten") (thousands ())
        (eval_within what d3 n);
      Alcotest.(check int) (what ^ ": then a store hit") 1
        (Dag.counters d3).Dag.hits)

let flip_last_bit s =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let test_flipped_bit () = check_damaged "flipped bit" flip_last_bit

let test_truncated () =
  check_damaged "truncated" (fun s -> String.sub s 0 (String.length s - 2))

let test_empty () = check_damaged "empty" (fun _ -> "")

(* a bare marshalled value, as nodes were stored before the header *)
let test_headerless () =
  check_damaged "header-less" (fun _ -> Marshal.to_string (thousands ()) [])

(* The payload's tmp file is a symlink to /dev/full, so its final flush
   fails as on a full disk (the tmp name is the store's own). The value is
   still returned, the failure is logged, the tmp file goes, no node is
   published, and the next evaluation recomputes. *)
let test_full_disk () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  with_dir (fun dir ->
      let n = Dag.node ~kind:"integrity" ~inputs:"full" thousands in
      let d = Dag.create ~dir () in
      let k = Dag.key d n in
      let node = Filename.concat dir (k ^ ".node") in
      let tmp = Printf.sprintf "%s.tmp.%d" node (Unix.getpid ()) in
      Unix.symlink "/dev/full" tmp;
      Alcotest.(check (array int)) "value returned" (thousands ())
        (eval_within "full disk" d n);
      let present path =
        match Unix.lstat path with
        | _ -> true
        | exception Unix.Unix_error _ -> false
      in
      Alcotest.(check bool) "no node published" false (present node);
      Alcotest.(check bool) "tmp file removed" false (present tmp);
      Alcotest.(check bool) "failure logged" true
        (contains
           (read_file (Filename.concat dir "dag.log"))
           ("store-failed " ^ k));
      let d2 = Dag.create ~dir () in
      ignore (eval_within "after full disk" d2 n : int array);
      Alcotest.(check int) "next evaluation misses" 1
        (Dag.counters d2).Dag.misses)

(* ---- store faults ----------------------------------------------------- *)

(* A .meta sidecar whose node is gone is no entry: [dag status] does not
   count it, and the node is a miss that recomputes. *)
let test_meta_without_node () =
  with_dir (fun dir ->
      let computes = ref 0 in
      let n =
        Dag.node ~kind:"orphan" ~inputs:"meta" (fun () ->
            incr computes;
            thousands ())
      in
      let d = Dag.create ~dir () in
      ignore (Dag.eval d n : int array);
      Sys.remove (Filename.concat dir (Dag.key d n ^ ".node"));
      Alcotest.(check int) "no entry" 0 (List.length (Dag.entries dir));
      Alcotest.(check bool) "status counts none" true
        (Bv_obs.Json.member "entries" (Dag.status_json dir)
        = Some (Bv_obs.Json.Int 0));
      let d2 = Dag.create ~dir () in
      Alcotest.(check (array int)) "right value" (thousands ())
        (eval_within "meta without node" d2 n);
      Alcotest.(check (pair int int)) "a miss that recomputes" (1, 2)
        ((Dag.counters d2).Dag.misses, !computes);
      Alcotest.(check int) "an entry again" 1 (List.length (Dag.entries dir)))

let write_claim dir d n ~pid ~host =
  let path = Filename.concat dir (Dag.key d n ^ ".claim") in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "%d %s %.0f\n" pid host (Unix.time ()));
  path

(* [check ()] in a forked child under a 5 s alarm, with [env] set there
   first: BV_DAG_WAIT is read once per process, so this process keeps
   its default. *)
let in_child ?(env = []) what check =
  match Unix.fork () with
  | 0 ->
    List.iter (fun (k, v) -> Unix.putenv k v) env;
    ignore (Unix.alarm 5 : int);
    let ok =
      try check ()
      with e ->
        prerr_endline (what ^ ": " ^ Printexc.to_string e);
        false
    in
    Unix._exit (if ok then 0 else 1)
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c -> Alcotest.failf "%s: check failed (exit %d)" what c
    | _ -> Alcotest.failf "%s: still running after 5 s" what)

(* A store serves one host: a fresh claim naming another host is stale
   at once, and the node is computed here. *)
let test_foreign_claim () =
  with_dir (fun dir ->
      let n = Dag.node ~kind:"claim" ~inputs:"foreign" thousands in
      let d = Dag.create ~dir () in
      ignore
        (write_claim dir d n ~pid:(Unix.getpid ())
           ~host:("not-" ^ Unix.gethostname ())
          : string);
      in_child "foreign claim" (fun () ->
          Dag.eval d n = thousands () && (Dag.counters d).Dag.misses = 1))

(* A claim held by a live process is awaited until BV_DAG_WAIT runs out,
   then fails naming the claim to remove. *)
let test_live_claim_times_out () =
  with_dir (fun dir ->
      let n = Dag.node ~kind:"claim" ~inputs:"live" thousands in
      let d = Dag.create ~dir () in
      let sleeper =
        Unix.create_process "sleep" [| "sleep"; "30" |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      Fun.protect
        ~finally:(fun () ->
          Unix.kill sleeper Sys.sigkill;
          ignore (Unix.waitpid [] sleeper))
        (fun () ->
          let claim =
            write_claim dir d n ~pid:sleeper ~host:(Unix.gethostname ())
          in
          in_child ~env:[ ("BV_DAG_WAIT", "0.3") ] "live claim" (fun () ->
              match Dag.eval d n with
              | _ -> false
              | exception Failure msg ->
                contains msg "Dag: timed out"
                && contains msg ("remove " ^ claim))))

(* A sweep whose worker is killed mid-node leaves that node's claim
   behind; a rerun on the same store takes the dead claim over and
   recomputes that node alone. *)
let test_killed_worker_rerun () =
  with_dir (fun dir ->
      let marks = Filename.concat dir "computes.marks" in
      let parent = Unix.getpid () in
      let kill = ref true in
      let nodes =
        List.init 6 (fun i ->
            Dag.node ~kind:"sweep" ~inputs:i (fun () ->
                if !kill && i = 3 && Unix.getpid () <> parent then kill_self ();
                append_mark marks (string_of_int i);
                i * 7))
      in
      (match Pool.map ~jobs:2 (Dag.eval (Dag.create ~dir ())) nodes with
      | _ -> Alcotest.fail "expected Worker_failure"
      | exception Pool.Worker_failure { index; _ } ->
        Alcotest.(check int) "the killed node's item" 3 index);
      Alcotest.(check int) "the other nodes landed" 5 (count_marks marks);
      kill := false;
      let d = Dag.create ~dir () in
      Alcotest.(check (list int)) "rerun values" [ 0; 7; 14; 21; 28; 35 ]
        (within "rerun" (fun () -> Pool.map ~jobs:2 (Dag.eval d) nodes));
      Alcotest.(check int) "only the killed node recomputed" 6
        (count_marks marks))

(* ---- gc and explain --------------------------------------------------- *)

let test_gc () =
  with_dir (fun dir ->
      let d = Dag.create ~dir () in
      let nodes =
        List.init 4 (fun i ->
            Dag.node ~kind:"gc" ~label:(Printf.sprintf "n%d" i) ~inputs:i
              (fun () -> String.make 64 'x'))
      in
      List.iter (fun n -> ignore (Dag.eval d n : string)) nodes;
      Alcotest.(check int) "4 entries" 4 (List.length (Dag.entries dir));
      (* age two of them far past any plausible max_age *)
      let old = Unix.time () -. 10_000.0 in
      List.iteri
        (fun i n ->
          if i < 2 then
            Unix.utimes (Filename.concat dir (Dag.key d n ^ ".node")) old old)
        nodes;
      let dry = Dag.gc ~max_age:100.0 ~dry_run:true dir in
      Alcotest.(check int) "dry run sees the old pair" 2
        (List.length dry.Dag.gcr_removed);
      Alcotest.(check bool) "dry run flagged" true dry.Dag.gcr_dry_run;
      Alcotest.(check int) "dry run touches nothing" 4
        (List.length (Dag.entries dir));
      let live = Dag.gc ~max_age:100.0 ~dry_run:false dir in
      Alcotest.(check int) "gc removes the old pair" 2
        (List.length live.Dag.gcr_removed);
      Alcotest.(check int) "2 entries survive" 2
        (List.length (Dag.entries dir));
      let all = Dag.gc ~max_bytes:0 ~dry_run:false dir in
      Alcotest.(check int) "size bound evicts the rest" 2
        (List.length all.Dag.gcr_removed);
      Alcotest.(check int) "store emptied" 0 (List.length (Dag.entries dir)))

let test_explain () =
  with_dir (fun dir ->
      let d = Dag.create ~dir () in
      let n =
        Dag.node ~kind:"probe" ~label:"the-probe" ~inputs:(3, "z") (fun () ->
            true)
      in
      ignore (Dag.eval d n : bool);
      ignore (Dag.eval (Dag.create ~dir ()) n : bool);
      let key = Dag.key d n in
      (match Dag.explain dir (String.sub key 0 10) with
      | Error e -> Alcotest.fail ("explain: " ^ e)
      | Ok x ->
        Alcotest.(check string) "full key resolved" key x.Dag.x_key;
        Alcotest.(check string) "kind" "probe" x.Dag.x_kind;
        Alcotest.(check string) "label" "the-probe" x.Dag.x_label;
        Alcotest.(check int) "format stamp" Dag.code_format x.Dag.x_format;
        Alcotest.(check bool) "provenance recorded" true
          (x.Dag.x_events <> []));
      (match Dag.explain dir "no-such-key" with
      | Ok _ -> Alcotest.fail "unknown prefix must not resolve"
      | Error _ -> ());
      let m =
        Dag.node ~kind:"probe" ~label:"other" ~inputs:(4, "z") (fun () ->
            false)
      in
      ignore (Dag.eval d m : bool);
      match Dag.explain dir "" with
      | Ok _ -> Alcotest.fail "ambiguous prefix must not resolve"
      | Error e ->
        Alcotest.(check bool) "ambiguity reported" true
          (String.length e > 0))

let () =
  Alcotest.run "dag"
    [ ( "engine",
        [ Alcotest.test_case "hit-miss-counters" `Quick test_hit_miss_counters;
          Alcotest.test_case "key-sensitivity" `Quick test_key_sensitivity;
          Alcotest.test_case "crash-resume" `Quick test_crash_resume;
          Alcotest.test_case "jobs-deterministic" `Quick
            test_jobs_deterministic
        ] );
      ( "cooperation",
        [ Alcotest.test_case "two-processes-one-store" `Quick
            test_two_processes_one_store
        ] );
      ( "pool",
        [ Alcotest.test_case "worker-failure-payload" `Quick
            test_worker_failure;
          Alcotest.test_case "worker-failure-lowest-index" `Quick
            test_worker_failure_lowest_index;
          Alcotest.test_case "unmarshallable-result" `Quick
            test_unmarshallable_result;
          Alcotest.test_case "worker-killed-mid-item" `Quick test_worker_killed
        ] );
      ( "store",
        [ Alcotest.test_case "gc" `Quick test_gc;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "meta-without-node" `Quick test_meta_without_node;
          Alcotest.test_case "foreign-claim" `Quick test_foreign_claim;
          Alcotest.test_case "live-claim-times-out" `Quick
            test_live_claim_times_out;
          Alcotest.test_case "killed-worker-rerun" `Quick
            test_killed_worker_rerun
        ] );
      ( "integrity",
        [ Alcotest.test_case "flipped bit" `Quick test_flipped_bit;
          Alcotest.test_case "truncated node" `Quick test_truncated;
          Alcotest.test_case "empty node" `Quick test_empty;
          Alcotest.test_case "header-less node" `Quick test_headerless;
          Alcotest.test_case "full disk" `Quick test_full_disk
        ] )
    ]
