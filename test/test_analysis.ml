(* The dataflow engine and the speculation-safety verifier.

   The engine is cross-checked against the hand-rolled liveness fixpoint in
   Bv_ir.Liveness. The verifier is exercised both ways: seeded violations
   (stores in speculative windows, undominated or doubled resolves, DBB
   overflow, tainted correction blocks, predicts across calls) must each
   produce their diagnostic, and well-formed decomposed programs — including
   one pushed through the Layout → Recover round-trip — must lint clean. *)

open Bv_isa
open Bv_ir
open Bv_analysis

let r = Reg.make
let block label body term = Block.make ~label ~body ~term

let proc ?entry name blocks = Proc.make ~name ?entry blocks
let program ?(procs = []) main_blocks =
  Program.make ~main:"main" (proc "main" main_blocks :: procs)

let mov dst n = Instr.Mov { dst = r dst; src = Instr.Imm n }
let add dst a b =
  Instr.Alu { op = Instr.Add; dst = r dst; src1 = r a; src2 = Instr.Reg (r b) }
let cmp_lt dst a b =
  Instr.Cmp { op = Instr.Lt; dst = r dst; src1 = r a; src2 = Instr.Reg (r b) }
let store src = Instr.Store { src = r src; base = r 0; offset = 0 }
let load dst = Instr.Load { dst = r dst; base = r 0; offset = 0; speculative = false }

let jump l = Term.Jump l
let branch ?(on = true) src ~taken ~not_taken id =
  Term.Branch { on; src = r src; taken; not_taken; id }
let predict ~taken ~not_taken id = Term.Predict { taken; not_taken; id }
let resolve ?(on = true) src ~mispredict ~fallthrough ~predicted_taken id =
  Term.Resolve
    { on; src = r src; mispredict; fallthrough; predicted_taken; id }

let errors_of_pass pass diags =
  List.filter
    (fun d -> Diagnostic.is_error d && d.Diagnostic.pass = pass)
    diags

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------- dataflow engine -- *)

module Live = Dataflow.Make (struct
  type t = Liveness.Regset.t

  let equal = Liveness.Regset.equal
  let join = Liveness.Regset.union
end)

let looped_proc () =
  proc "main"
    [ block "entry" [ mov 1 0; mov 2 10 ] (jump "head");
      block "head" [ cmp_lt 5 1 2 ]
        (branch 5 ~taken:"body" ~not_taken:"exit" 1);
      block "body" [ add 3 3 1; add 1 1 1 ] (jump "head");
      block "exit" [ store 3 ] Term.Halt
    ]

let test_engine_matches_liveness () =
  let p = looped_proc () in
  let g = Cfg.make p in
  let live = Liveness.compute ~exit_live:Liveness.Regset.empty g in
  let sol =
    Live.solve ~direction:Dataflow.Backward ~boundary:Liveness.Regset.empty
      ~transfer:(fun b out ->
        let use, def = Liveness.block_use_def b in
        Liveness.Regset.union use (Liveness.Regset.diff out def))
      g
  in
  List.iter
    (fun label ->
      let expect = Liveness.live_in live label in
      match Live.fact_in sol label with
      | Some got ->
        Alcotest.(check bool)
          (label ^ " live-in matches") true
          (Liveness.Regset.equal expect got)
      | None -> Alcotest.fail (label ^ ": engine computed no fact"))
    (List.map (Cfg.label g) (Array.to_list g.Cfg.rpo))

module SS = Set.Make (String)

module Reach = Dataflow.Make (struct
  type t = SS.t

  let equal = SS.equal
  let join = SS.union
end)

let test_engine_backward_irreducible () =
  (* Two entries into the {l1, l2} cycle — an irreducible-looking region
     (neither cycle block dominates the other) — solved backwards. The
     fact at each block is the set of labels on some path from it to an
     exit, so the fixpoint must carry both exits all the way around the
     cycle and into both of its entry edges. *)
  let p =
    proc "main"
      [ block "entry" [ mov 5 1 ]
          (branch 5 ~taken:"l1" ~not_taken:"l2" 1);
        block "l1" [] (branch 6 ~taken:"l2" ~not_taken:"exit_a" 2);
        block "l2" [] (branch 7 ~taken:"l1" ~not_taken:"exit_b" 3);
        block "exit_a" [] Term.Halt;
        block "exit_b" [] Term.Halt
      ]
  in
  let sol =
    Reach.solve ~direction:Dataflow.Backward ~boundary:SS.empty
      ~transfer:(fun b s -> SS.add b.Block.label s)
      (Cfg.make p)
  in
  let check label expect =
    match Reach.fact_in sol label with
    | None -> Alcotest.failf "%s: engine computed no fact" label
    | Some s ->
      Alcotest.(check (list string)) label expect (SS.elements s)
  in
  check "exit_a" [ "exit_a" ];
  check "exit_b" [ "exit_b" ];
  check "l1" [ "exit_a"; "exit_b"; "l1"; "l2" ];
  check "l2" [ "exit_a"; "exit_b"; "l1"; "l2" ];
  check "entry" [ "entry"; "exit_a"; "exit_b"; "l1"; "l2" ]

let test_engine_skips_unreachable () =
  let p =
    proc "main"
      [ block "entry" [] Term.Halt; block "island" [] (jump "island") ]
  in
  let sol =
    Live.solve ~direction:Dataflow.Forward ~boundary:Liveness.Regset.empty
      ~transfer:(fun _ s -> s)
      (Cfg.make p)
  in
  Alcotest.(check bool) "island has no fact" true
    (Live.fact_in sol "island" = None);
  Alcotest.(check bool) "entry has a fact" true
    (Live.fact_in sol "entry" <> None)

(* The indexed engine against the label-table engine it replaced: the
   fact at entry and exit of every label, for lattices shaped like the
   three clients' (register sets, per-register constants joined to top,
   outstanding predict sites under union and under intersection), each
   solved forwards and backwards on arbitrary small procedures. *)
module Same_solution (L : sig
  include Dataflow.LATTICE

  val boundary : t
  val transfer : Block.t -> t -> t
end) =
struct
  module New = Dataflow.Make (L)
  module Old = Cfg_ref.Dataflow (L)

  let check proc =
    List.for_all
      (fun direction ->
        let got =
          New.solve ~direction ~boundary:L.boundary ~transfer:L.transfer
            (Cfg.make proc)
        in
        let want =
          Old.solve ~direction ~boundary:L.boundary ~transfer:L.transfer proc
        in
        List.for_all
          (fun l ->
            Option.equal L.equal (New.fact_in got l) (Old.fact_in want l)
            && Option.equal L.equal (New.fact_out got l) (Old.fact_out want l))
          ("nowhere" :: Proc.block_labels proc))
      [ Dataflow.Forward; Dataflow.Backward ]
end

module Live_check = Same_solution (struct
  include Liveness.Regset

  let boundary = Liveness.Regset.empty
  let join = Liveness.Regset.union

  let transfer b s =
    let use, def = Liveness.block_use_def b in
    Liveness.Regset.union use (Liveness.Regset.diff s def)
end)

module Const_check = Same_solution (struct
  type t = int option array

  let equal = Array.for_all2 (Option.equal Int.equal)

  let join a b =
    Array.map2 (fun x y -> if Option.equal Int.equal x y then x else None) a b

  let boundary = Array.make 8 (Some 0)

  let transfer b s =
    let s = Array.copy s in
    List.iter
      (fun i ->
        match i with
        | Instr.Mov { dst; src = Instr.Imm k } -> s.(Reg.index dst) <- Some k
        | Instr.Alu { dst; src1; src2 = Instr.Reg r; _ } ->
          s.(Reg.index dst) <-
            (match (s.(Reg.index src1), s.(Reg.index r)) with
            | Some x, Some y -> Some ((x + y) land 7)
            | _ -> None)
        | i -> List.iter (fun r -> s.(Reg.index r) <- None) (Instr.defs i))
      b.Block.body;
    s
end)

module Intset = Set.Make (Int)

let sites_transfer b s =
  match b.Block.term with
  | Term.Predict { id; _ } -> Intset.add id s
  | Term.Resolve { id; _ } -> Intset.remove id s
  | _ -> s

module May_check = Same_solution (struct
  include Intset

  let join = Intset.union
  let boundary = Intset.empty
  let transfer = sites_transfer
end)

module Must_check = Same_solution (struct
  include Intset

  let join = Intset.inter
  let boundary = Intset.singleton 2
  let transfer = sites_transfer
end)

let prop_indexed_dataflow =
  QCheck2.Test.make ~name:"indexed Dataflow = label-table reference"
    ~count:500 ~print:Cfg_ref.print_proc Cfg_ref.gen_proc (fun proc ->
      Live_check.check proc && Const_check.check proc && May_check.check proc
      && Must_check.check proc)

(* ------------------------------------------- seeded lint violations -- *)

(* A minimal decomposed hammock: predict in [entry], one resolve arm per
   direction, correction blocks cold at the end. [rnt_body]/[fix_body]
   parameterise the seeded violation. *)
let hammock ?(rnt_body = [ cmp_lt 5 1 2 ]) ?(fixc_body = [ mov 7 20 ]) () =
  program
    [ block "entry" [ mov 1 5; mov 2 3 ] (predict ~taken:"rt" ~not_taken:"rnt" 1);
      block "rnt" rnt_body
        (resolve 5 ~mispredict:"fixc" ~fallthrough:"join"
           ~predicted_taken:false 1);
      block "rt" [ cmp_lt 5 1 2 ]
        (resolve 5 ~mispredict:"fixb" ~fallthrough:"join"
           ~predicted_taken:true 1);
      block "join" [ store 6 ] Term.Halt;
      block "fixb" [ mov 6 10 ] (jump "join");
      block "fixc" fixc_body (jump "join")
    ]

let test_clean_hammock () =
  let diags = Speculation.verify (hammock ()) in
  Alcotest.(check bool) "no diagnostics at all" true (diags = [])

let test_store_in_window () =
  let diags =
    Speculation.verify (hammock ~rnt_body:[ cmp_lt 5 1 2; store 6 ] ())
  in
  Alcotest.(check int) "one spec-window error" 1
    (List.length (errors_of_pass "spec-window" diags))

let test_unmarked_load_in_window () =
  let diags =
    Speculation.verify (hammock ~rnt_body:[ load 1; cmp_lt 5 1 2 ] ())
  in
  Alcotest.(check bool) "no errors" true (not (Diagnostic.has_errors diags));
  Alcotest.(check int) "one warning" 1 (Diagnostic.count Diagnostic.Warning diags)

let test_correction_store () =
  let diags =
    Speculation.verify (hammock ~fixc_body:[ store 7 ] ())
  in
  Alcotest.(check int) "one correction error" 1
    (List.length (errors_of_pass "correction" diags))

let test_correction_use_before_def () =
  (* rnt speculatively clobbers r10 (unrenamed); the correction block for a
     mispredict on that arm then reads r10. *)
  let diags =
    Speculation.verify
      (hammock
         ~rnt_body:[ cmp_lt 5 1 2; mov 10 7 ]
         ~fixc_body:[ add 7 10 10 ] ())
  in
  match errors_of_pass "correction" diags with
  | [ d ] ->
    Alcotest.(check bool) "names r10" true
      (contains_sub d.Diagnostic.message "r10")
  | ds -> Alcotest.failf "expected 1 correction error, got %d" (List.length ds)

let test_resolve_not_dominated () =
  let p =
    program
      [ block "entry" [] (branch 5 ~taken:"p" ~not_taken:"skip" 99);
        block "p" [] (predict ~taken:"m" ~not_taken:"m" 1);
        block "skip" [] (jump "m");
        block "m" []
          (resolve 5 ~mispredict:"fix" ~fallthrough:"done"
             ~predicted_taken:false 1);
        block "fix" [] (jump "done");
        block "done" [] Term.Halt
      ]
  in
  match errors_of_pass "pairing" (Speculation.verify p) with
  | [ d ] ->
    Alcotest.(check bool) "mentions domination" true
      (contains_sub d.Diagnostic.message "not dominated")
  | ds -> Alcotest.failf "expected 1 pairing error, got %d" (List.length ds)

let test_double_resolve () =
  let p =
    program
      [ block "entry" [] (predict ~taken:"r1" ~not_taken:"r1" 1);
        block "r1" []
          (resolve 5 ~mispredict:"fix" ~fallthrough:"r2"
             ~predicted_taken:false 1);
        block "r2" []
          (resolve 5 ~mispredict:"fix" ~fallthrough:"done"
             ~predicted_taken:true 1);
        block "fix" [] (jump "done");
        block "done" [] Term.Halt
      ]
  in
  match errors_of_pass "pairing" (Speculation.verify p) with
  | [ d ] ->
    Alcotest.(check bool) "mentions double resolve" true
      (contains_sub d.Diagnostic.message "double resolve")
  | ds -> Alcotest.failf "expected 1 pairing error, got %d" (List.length ds)

let test_dbb_occupancy () =
  let chain = [ 1; 2; 3; 4; 5 ] in
  let predicts =
    List.map
      (fun i ->
        let next = if i = 5 then "r5" else Printf.sprintf "p%d" (i + 1) in
        block (Printf.sprintf "p%d" i) [] (predict ~taken:next ~not_taken:next i))
      chain
  and resolves =
    List.map
      (fun i ->
        let next = if i = 1 then "done" else Printf.sprintf "r%d" (i - 1) in
        block (Printf.sprintf "r%d" i) []
          (resolve 5 ~mispredict:"fix" ~fallthrough:next
             ~predicted_taken:false i))
      (List.rev chain)
  in
  let blocks =
    predicts @ resolves
    @ [ block "fix" [] (jump "done"); block "done" [] Term.Halt ]
  in
  let p = Program.make ~main:"p1" [ proc "p1" blocks ] in
  Alcotest.(check bool) "fits a 16-entry DBB" true
    (not (Diagnostic.has_errors (Speculation.verify p)));
  let diags = Speculation.verify ~dbb_entries:4 p in
  Alcotest.(check int) "overflows a 4-entry DBB" 1
    (List.length (errors_of_pass "pairing" diags))

let test_predict_across_call () =
  let callee = proc "callee" [ block "callee_entry" [] Term.Ret ] in
  let p =
    program ~procs:[ callee ]
      [ block "entry" [] (predict ~taken:"c" ~not_taken:"c" 1);
        block "c" [] (Term.Call { target = "callee"; return_to = "back" });
        block "back" []
          (resolve 5 ~mispredict:"fix" ~fallthrough:"done"
             ~predicted_taken:false 1);
        block "fix" [] (jump "done");
        block "done" [] Term.Halt
      ]
  in
  match errors_of_pass "pairing" (Speculation.verify p) with
  | [ d ] ->
    Alcotest.(check bool) "flags the call" true
      (contains_sub d.Diagnostic.message "call")
  | ds -> Alcotest.failf "expected 1 pairing error, got %d" (List.length ds)

let test_repredict_in_loop () =
  let p =
    program
      [ block "entry" [] (predict ~taken:"body" ~not_taken:"body" 1);
        block "body" [] (branch 5 ~taken:"entry" ~not_taken:"res" 9);
        block "res" []
          (resolve 5 ~mispredict:"fix" ~fallthrough:"done"
             ~predicted_taken:false 1);
        block "fix" [] (jump "done");
        block "done" [] Term.Halt
      ]
  in
  match errors_of_pass "pairing" (Speculation.verify p) with
  | [ d ] ->
    Alcotest.(check bool) "mentions re-predict" true
      (contains_sub d.Diagnostic.message "re-predict")
  | ds -> Alcotest.failf "expected 1 pairing error, got %d" (List.length ds)

let test_assert_style_resolve () =
  let p =
    program
      [ block "entry" [] (jump "r");
        block "r" [ cmp_lt 5 1 2 ]
          (resolve 5 ~mispredict:"fix" ~fallthrough:"done"
             ~predicted_taken:false 3);
        block "fix" [] (jump "done");
        block "done" [] Term.Halt
      ]
  in
  Alcotest.(check (result unit (list string))) "validates" (Ok ())
    (Validate.check p);
  let diags = Speculation.verify p in
  Alcotest.(check bool) "no errors" true (not (Diagnostic.has_errors diags));
  Alcotest.(check int) "one info" 1 (Diagnostic.count Diagnostic.Info diags)

let test_scratch_uninit () =
  let cmov_r48 =
    Instr.Cmov
      { on = true; cond = r 14; dst = r 48; src = Instr.Reg (r 16) }
  in
  let p = hammock ~rnt_body:[ cmov_r48; cmp_lt 5 1 2 ] () in
  Alcotest.(check bool) "silent without a scratch set" true
    (not (Diagnostic.has_errors (Speculation.verify p)));
  match errors_of_pass "scratch-uninit" (Speculation.verify ~scratch:[ r 48 ] p)
  with
  | [ d ] ->
    Alcotest.(check bool) "names r48" true
      (contains_sub d.Diagnostic.message "r48")
  | ds ->
    Alcotest.failf "expected 1 scratch-uninit error, got %d" (List.length ds)

let test_unreachable_block () =
  let p =
    program
      [ block "entry" [] Term.Halt; block "island" [ mov 6 1 ] (jump "island") ]
  in
  let diags = Speculation.verify p in
  Alcotest.(check bool) "no errors" true (not (Diagnostic.has_errors diags));
  Alcotest.(check int) "one reachability warning" 1
    (List.length
       (List.filter (fun d -> d.Diagnostic.pass = "reachability") diags))

(* -------------------------------------------------- validator fixes -- *)

let expect_validate_error p sub =
  match Validate.check p with
  | Ok () -> Alcotest.failf "expected a validation error matching %S" sub
  | Error msgs ->
    Alcotest.(check bool)
      (Printf.sprintf "some message contains %S" sub)
      true
      (List.exists (fun m -> contains_sub m sub) msgs)

let test_validate_duplicate_predict () =
  expect_validate_error
    (program
       [ block "entry" [] (predict ~taken:"x" ~not_taken:"x" 1);
         block "x" [] (predict ~taken:"y" ~not_taken:"y" 1);
         block "y" []
           (resolve 5 ~mispredict:"z" ~fallthrough:"z" ~predicted_taken:false
              1);
         block "z" [] Term.Halt
       ])
    "duplicate predict site id 1"

let test_validate_duplicate_resolve_arm () =
  expect_validate_error
    (program
       [ block "entry" [] (predict ~taken:"r1" ~not_taken:"r1" 1);
         block "r1" []
           (resolve 5 ~mispredict:"z" ~fallthrough:"r2"
              ~predicted_taken:false 1);
         block "r2" []
           (resolve 5 ~mispredict:"z" ~fallthrough:"z"
              ~predicted_taken:false 1);
         block "z" [] Term.Halt
       ])
    "duplicate resolve site id 1"

let test_validate_resolve_branch_collision () =
  expect_validate_error
    (program
       [ block "entry" [] (branch 5 ~taken:"a" ~not_taken:"a" 7);
         block "a" []
           (resolve 5 ~mispredict:"z" ~fallthrough:"z" ~predicted_taken:false
              7);
         block "z" [] Term.Halt
       ])
    "both a branch and a resolve"

let test_validate_multi_arm_unpaired_resolve () =
  expect_validate_error
    (program
       [ block "entry" [] (jump "a");
         block "a" []
           (resolve 5 ~mispredict:"z" ~fallthrough:"b" ~predicted_taken:false
              3);
         block "b" []
           (resolve 5 ~mispredict:"z" ~fallthrough:"z" ~predicted_taken:true
              3);
         block "z" [] Term.Halt
       ])
    "no matching predict"

(* -------------------------------------------- transform regression -- *)

(* A conditional move leading a successor block both reads and writes its
   destination. Hoisting it speculatively must seed the fresh temporary
   with the running value — without that, the commit move publishes the
   uninitialised temp whenever the cmov condition is false. Found by the
   speculation linter's scratch-uninit pass on fuzzed programs. *)
let test_cmov_partial_write_hoist () =
  let prog =
    program
      [ block "a" [ mov 10 45; mov 14 0; mov 16 7; cmp_lt 5 14 16 ]
          (branch 5 ~taken:"c" ~not_taken:"b" 1);
        block "b"
          [ Instr.Cmov
              { on = true; cond = r 14; dst = r 10; src = Instr.Reg (r 16) }
          ]
          (jump "join");
        block "c" [ mov 8 1 ] (jump "join");
        block "join" [ store 10 ] Term.Halt
      ]
  in
  let image = Layout.program (Program.copy prog) in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Always_not_taken)
      image
  in
  let candidates =
    (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog)
      .Vanguard.Select.candidates
  in
  Alcotest.(check bool) "site is a candidate" true (candidates <> []);
  let result = Vanguard.Transform.apply ~candidates prog in
  let digest i = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run i) in
  Alcotest.(check int) "same architectural digest" (digest image)
    (digest (Layout.program result.Vanguard.Transform.program));
  Alcotest.(check bool) "transformed program lints clean" true
    (not
       (Diagnostic.has_errors
          (Speculation.verify
             ~scratch:Vanguard.Transform.default_temp_pool
             result.Vanguard.Transform.program)))

(* ------------------------------------------- recover round-tripping -- *)

let test_recover_roundtrip_decomposed () =
  let p = hammock () in
  Alcotest.(check (result unit (list string))) "original validates" (Ok ())
    (Validate.check p);
  let img = Layout.program p in
  let recovered = Recover.image img in
  Alcotest.(check (result unit (list string))) "recovered validates" (Ok ())
    (Validate.check recovered);
  Alcotest.(check bool) "recovered lints clean" true
    (not (Diagnostic.has_errors (Speculation.verify recovered)));
  let digest i = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run i) in
  Alcotest.(check int) "same architectural digest" (digest img)
    (digest (Layout.program recovered))

(* ------------------------------------------------------ diagnostics -- *)

let test_diagnostic_json_roundtrip () =
  let d =
    Diagnostic.error ~block:"b1" ~site:5 ~pass:"pairing" ~proc:"main"
      "resolve of site %d misbehaves" 5
  in
  let json = Diagnostic.to_json d in
  match Bv_obs.Json.of_string (Bv_obs.Json.to_string ~indent:true json) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    let str k =
      match Bv_obs.Json.member k parsed with
      | Some (Bv_obs.Json.String s) -> s
      | _ -> Alcotest.failf "missing string field %s" k
    in
    Alcotest.(check string) "severity" "error" (str "severity");
    Alcotest.(check string) "pass" "pairing" (str "pass");
    Alcotest.(check string) "proc" "main" (str "proc");
    Alcotest.(check string) "block" "b1" (str "block");
    Alcotest.(check bool) "site" true
      (Bv_obs.Json.member "site" parsed = Some (Bv_obs.Json.Int 5));
    Alcotest.(check string) "message" "resolve of site 5 misbehaves"
      (str "message")

let test_report_counts () =
  let diags =
    [ Diagnostic.info ~pass:"pairing" ~proc:"main" "i";
      Diagnostic.error ~pass:"pairing" ~proc:"main" "e";
      Diagnostic.warning ~pass:"spec-window" ~proc:"main" "w"
    ]
  in
  let json = Diagnostic.report_to_json diags in
  Alcotest.(check bool) "error count" true
    (Bv_obs.Json.member "errors" json = Some (Bv_obs.Json.Int 1));
  Alcotest.(check bool) "warning count" true
    (Bv_obs.Json.member "warnings" json = Some (Bv_obs.Json.Int 1));
  Alcotest.(check bool) "info count" true
    (Bv_obs.Json.member "infos" json = Some (Bv_obs.Json.Int 1));
  match Diagnostic.sort diags with
  | { Diagnostic.severity = Diagnostic.Error; _ } :: _ -> ()
  | _ -> Alcotest.fail "sort must put errors first"

let test_diagnostic_order_dedup () =
  let e1 =
    Diagnostic.error ~block:"b2" ~site:4 ~pass:"pairing" ~proc:"main" "boom"
  in
  let e1' =
    Diagnostic.error ~block:"b2" ~site:4 ~pass:"pairing" ~proc:"main" "boom"
  in
  let e2 = Diagnostic.error ~pass:"spec-window" ~proc:"main" "later pass" in
  let w =
    Diagnostic.warning ~block:"b1" ~site:3 ~pass:"pairing" ~proc:"main" "w"
  in
  let i = Diagnostic.info ~pass:"pairing" ~proc:"aux" "i" in
  Alcotest.(check string) "site key" "main/b2#4" (Diagnostic.site_key e1);
  Alcotest.(check string) "site key with missing parts" "main/-#-"
    (Diagnostic.site_key e2);
  (* Total order: severity first, then pass/location, whatever the input
     permutation. *)
  let messages ds = List.map (fun d -> d.Diagnostic.message) ds in
  Alcotest.(check (list string))
    "sorted order"
    [ "boom"; "later pass"; "w"; "i" ]
    (messages (Diagnostic.sort [ i; w; e2; e1 ]));
  Alcotest.(check (list string))
    "order is permutation-independent"
    (messages (Diagnostic.sort [ i; w; e2; e1 ]))
    (messages (Diagnostic.sort [ e1; e2; w; i ]));
  Alcotest.(check int) "compare equal on duplicates" 0
    (Diagnostic.compare e1 e1');
  (* Dedup keeps the first occurrence of each repeated finding. *)
  Alcotest.(check (list string))
    "dedup drops repeats" [ "boom"; "w" ]
    (messages (Diagnostic.dedup [ e1; e1'; w; e1 ]));
  (* report_to_json counts the deduped list, not the raw one. *)
  Alcotest.(check bool) "report counts post-dedup" true
    (Bv_obs.Json.member "errors" (Diagnostic.report_to_json [ e1; e1'; e2 ])
    = Some (Bv_obs.Json.Int 2))

let () =
  Alcotest.run "bv_analysis"
    [ ( "dataflow engine",
        [ Alcotest.test_case "matches the liveness fixpoint" `Quick
            test_engine_matches_liveness;
          Alcotest.test_case "backward over an irreducible cycle" `Quick
            test_engine_backward_irreducible;
          Alcotest.test_case "no facts for unreachable blocks" `Quick
            test_engine_skips_unreachable;
          QCheck_alcotest.to_alcotest prop_indexed_dataflow
        ] );
      ( "speculation verifier",
        [ Alcotest.test_case "clean hammock lints clean" `Quick
            test_clean_hammock;
          Alcotest.test_case "store in speculative window" `Quick
            test_store_in_window;
          Alcotest.test_case "unmarked load in window warns" `Quick
            test_unmarked_load_in_window;
          Alcotest.test_case "store in correction block" `Quick
            test_correction_store;
          Alcotest.test_case "use-before-def in correction block" `Quick
            test_correction_use_before_def;
          Alcotest.test_case "resolve not dominated by predict" `Quick
            test_resolve_not_dominated;
          Alcotest.test_case "double resolve" `Quick test_double_resolve;
          Alcotest.test_case "DBB occupancy" `Quick test_dbb_occupancy;
          Alcotest.test_case "predict outstanding across call" `Quick
            test_predict_across_call;
          Alcotest.test_case "re-predict inside a loop" `Quick
            test_repredict_in_loop;
          Alcotest.test_case "assert-style resolve is info" `Quick
            test_assert_style_resolve;
          Alcotest.test_case "undominated scratch read" `Quick
            test_scratch_uninit;
          Alcotest.test_case "unreachable block warns" `Quick
            test_unreachable_block
        ] );
      ( "transform regression",
        [ Alcotest.test_case "hoisted cmov seeds its temp" `Quick
            test_cmov_partial_write_hoist
        ] );
      ( "validator",
        [ Alcotest.test_case "duplicate predict id" `Quick
            test_validate_duplicate_predict;
          Alcotest.test_case "duplicate resolve arm" `Quick
            test_validate_duplicate_resolve_arm;
          Alcotest.test_case "resolve/branch id collision" `Quick
            test_validate_resolve_branch_collision;
          Alcotest.test_case "multi-arm resolve without predict" `Quick
            test_validate_multi_arm_unpaired_resolve
        ] );
      ( "round-trip",
        [ Alcotest.test_case "recover keeps decomposed programs lintable"
            `Quick test_recover_roundtrip_decomposed
        ] );
      ( "diagnostics",
        [ Alcotest.test_case "json round-trip" `Quick
            test_diagnostic_json_roundtrip;
          Alcotest.test_case "report counts and ordering" `Quick
            test_report_counts;
          Alcotest.test_case "site keys, total order, dedup" `Quick
            test_diagnostic_order_dedup
        ] )
    ]
