(* Golden cycle-equivalence regression.

   The staged machine (Frontend/Scoreboard/Backend/Spec_state behind
   Machine.run) must reproduce the pre-refactor monolith's behaviour
   bit-for-bit: these goldens were captured from the single-module
   machine and every counter in Stats.to_json — cycles included — plus
   the architectural digests must match exactly. An accounted run of each
   case must reproduce the same counters, and its CPI stack and
   per-branch attribution ({!Acct.to_json}) must match [acct_<case>.json].

   Regenerating (only after an *intentional* timing-model change):

     BV_GOLDEN_DIR=test/goldens dune exec test/test_goldens.exe

   from the repository root rewrites the files in place. *)

open Bv_bpred
open Bv_ir
open Bv_pipeline
open Golden_configs

let capture ?on_cycle ?acct (config : Config.t) image =
  let res = Machine.run ?on_cycle ?acct ~config image in
  let open Bv_obs.Json in
  to_string ~indent:true
    (Obj
       [ ("config", String (Config.name config));
         ("finished", Bool res.Machine.finished);
         ("arch_digest", Int res.Machine.arch_digest);
         ("mem_digest", Int res.Machine.mem_digest);
         ("stores_retired", Int res.Machine.stores_retired);
         ("stats", Stats.to_json res.Machine.stats)
       ])
  ^ "\n"

let test_case (name, config, image) () =
  let image = Lazy.force image in
  let got = capture config image in
  (* Stall skipping must be indistinguishable from stepping every cycle
     (which any observer, here a no-op one, forces) in every counter and
     digest. *)
  let no_op ~cycle:_ ~stats:_ ~dbb_occupancy:_ = () in
  let stepped = capture ~on_cycle:no_op config image in
  Alcotest.(check string) (name ^ " unobserved = stepped") stepped got;
  let acct = Acct.create image.Layout.code in
  let accounted = capture ~acct config image in
  Alcotest.(check string) (name ^ " accounted = unobserved") got accounted;
  Golden.check ~file:(name ^ ".json") ~what:(name ^ " stats bit-for-bit") got;
  Golden.check
    ~file:("acct_" ^ name ^ ".json")
    ~what:(name ^ " CPI stack bit-for-bit")
    (Bv_obs.Json.to_string ~indent:true (Acct.to_json acct) ^ "\n")

(* Every predictor of the ladder on the decomposed 4-wide image, where
   predicts, resolves and the DBB are all live: each kind's predict /
   update / recover path, meta storage included, is pinned bit-for-bit,
   and stall skipping must match stepping under each of them. *)
let test_ladder kind () =
  let name = "ladder_" ^ Kind.name kind ^ "_w4" in
  let config = Config.make ~predictor:kind ~width:4 () in
  let image = Lazy.force (List.assoc "decomposed_w4" images) in
  let got = capture config image in
  let no_op ~cycle:_ ~stats:_ ~dbb_occupancy:_ = () in
  Alcotest.(check string)
    (name ^ " unobserved = stepped")
    (capture ~on_cycle:no_op config image)
    got;
  Golden.check ~file:(name ^ ".json") ~what:(name ^ " stats bit-for-bit") got

(* ---- metamorphic relations over the four golden configs ------------- *)

let outcome (config : Config.t) image =
  let r = Machine.run ~config image in
  (r.Machine.stats, r.Machine.arch_digest)

(* A plain image holds no predict, so nothing enters the DBB: every DBB
   size gives the same run. *)
let test_dbb_size_plain () =
  List.iter
    (fun (name, (config : Config.t), image) ->
      let image = Lazy.force image in
      let base = outcome config image in
      List.iter
        (fun entries ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, dbb_entries %d: same stats and digest" name
               entries)
            true
            (outcome { config with Config.dbb_entries = entries } image = base))
        [ 1; 2; 16; 64 ])
    (List.filter
       (fun (name, _, _) -> name = "plain_w4" || name = "runahead_w8")
       cases)

(* The oracle predictor never mispredicts a branch or a resolve, so no
   cycle is charged to recovery. *)
let test_perfect_predictor () =
  List.iter
    (fun (name, (config : Config.t), image) ->
      let image = Lazy.force image in
      let acct = Acct.create image.Layout.code in
      let r =
        Machine.run ~acct
          ~config:{ config with Config.predictor = Kind.Perfect }
          image
      in
      let stats = r.Machine.stats in
      Alcotest.(check (list int))
        (name ^ ", perfect: branch and resolve mispredicts, recovery cycles")
        [ 0; 0; 0 ]
        [ stats.Stats.branch_mispredicts;
          stats.Stats.resolve_mispredicts;
          acct.Acct.components.(Acct.c_recovery)
        ])
    cases

(* Without runahead nothing issues a runahead prefetch. *)
let test_runahead_off () =
  List.iter
    (fun (name, (config : Config.t), image) ->
      let r =
        Machine.run
          ~config:{ config with Config.runahead = false }
          (Lazy.force image)
      in
      Alcotest.(check int)
        (name ^ ", runahead off: prefetches")
        0 r.Machine.stats.Stats.runahead_prefetches)
    cases

let () =
  Alcotest.run "bv_goldens"
    [ ( "cycle-equivalence",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_case case))
          cases );
      ( "predictor ladder",
        List.map
          (fun kind -> Alcotest.test_case (Kind.name kind) `Quick (test_ladder kind))
          Kind.all );
      ( "metamorphic",
        [ Alcotest.test_case "dbb size on plain images" `Quick
            test_dbb_size_plain;
          Alcotest.test_case "perfect predictor" `Quick test_perfect_predictor;
          Alcotest.test_case "runahead off" `Quick test_runahead_off
        ] )
    ]
