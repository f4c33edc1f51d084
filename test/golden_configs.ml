(* The four golden machine configurations and their images, shared by
   the cycle-equivalence goldens and the allocation gate. *)

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

let images = List.map (fun (name, _, image) -> (name, image)) cases
