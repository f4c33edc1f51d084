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
open Bv_workloads

let baseline_of program =
  let p = Program.copy program in
  Bv_sched.Sched.schedule_program p;
  p

(* Branchy integer kernel: eligible + biased + hard sites, deep condition
   slices. Exercises branches, calls/returns and wrong-path squashes. *)
let spec_int =
  Spec.make ~name:"golden-int" ~suite:Spec.Int_2006 ~seed:7001
    ~branch_classes:
      [ Spec.cls ~count:6 ~taken_rate:0.60 ~predictability:0.95 ();
        Spec.cls ~iid:true ~count:4 ~taken_rate:0.92 ~predictability:0.92 ();
        Spec.cls ~iid:true ~count:2 ~taken_rate:0.50 ~predictability:0.50 ()
      ]
    ~loads_per_block:3.0 ~cond_depth:4 ~inner_n:128 ~reps:10 ()

(* Memory-bound kernel: big footprint, pointer chases into the condition.
   Exercises cache misses, MSHR pressure and (case 3) runahead prefetch. *)
let spec_mem =
  Spec.make ~name:"golden-mem" ~suite:Spec.Fp_2006 ~seed:7002
    ~branch_classes:[ Spec.cls ~count:4 ~taken_rate:0.58 ~predictability:0.96 () ]
    ~loads_per_block:4.0 ~footprint_kb:128 ~chase_frac:0.2 ~cond_chase:true
    ~inner_n:64 ~reps:3 ()

let plain_image spec = Layout.program (baseline_of (Gen.generate ~input:1 spec))

(* The decomposed-branch build of [spec_int]: full profile → select →
   transform pipeline, so predicts, resolves and the DBB are all live. *)
let decomposed_image spec =
  let program = Gen.generate ~input:1 spec in
  let train = Gen.generate ~input:0 spec in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Kind.create Kind.Tournament)
      (Layout.program (baseline_of train))
  in
  let selection = Vanguard.Select.select ~profile train in
  let result =
    Vanguard.Transform.apply ~exit_live:Gen.live_at_exit
      ~candidates:selection.Vanguard.Select.candidates program
  in
  Layout.program result.Vanguard.Transform.program

let cases =
  [ ("plain_w4", Config.four_wide, lazy (plain_image spec_int));
    ("decomposed_w4", Config.four_wide, lazy (decomposed_image spec_int));
    ( "runahead_w8",
      { (Config.make ~predictor:Kind.Tage ~width:8 ()) with
        Config.runahead = true
      },
      lazy (plain_image spec_mem) );
    (* Decomposed + runahead combined: predicts/resolves, the DBB and the
       runahead prefetcher all live in one run — the configuration most
       sensitive to structural-resource accounting. *)
    ( "decomposed_runahead_w8",
      { (Config.make ~predictor:Kind.Tage ~width:8 ()) with
        Config.runahead = true
      },
      lazy (decomposed_image spec_mem) )
  ]

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

let check_golden ~file ~what got =
  match Sys.getenv_opt "BV_GOLDEN_DIR" with
  | Some dir ->
    let path = Filename.concat dir file in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc got);
    Printf.printf "wrote %s\n%!" path
  | None ->
    let want =
      In_channel.with_open_text (Filename.concat "goldens" file)
        In_channel.input_all
    in
    Alcotest.(check string) what want got

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
  check_golden ~file:(name ^ ".json") ~what:(name ^ " stats bit-for-bit") got;
  check_golden
    ~file:("acct_" ^ name ^ ".json")
    ~what:(name ^ " CPI stack bit-for-bit")
    (Bv_obs.Json.to_string ~indent:true (Acct.to_json acct) ^ "\n")

let () =
  Alcotest.run "bv_goldens"
    [ ( "cycle-equivalence",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_case case))
          cases )
    ]
