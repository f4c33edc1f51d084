(* Build a custom synthetic benchmark from a Spec, run the full pipeline
   (generate -> profile -> select -> transform -> simulate), and show how
   the workload knobs move the result — a miniature of the calibration the
   suite files do for every SPEC benchmark.

   Run with: dune exec examples/custom_workload.exe *)

open Bv_harness
open Bv_workloads

let base_spec ~name ~eligible ~biased ~hard ~hoist ~loads ~cond_depth =
  Spec.make ~name ~suite:Spec.Int_2006 ~seed:4242
    ~branch_classes:
      [ Spec.cls ~count:eligible ~taken_rate:0.6 ~predictability:0.96 ();
        Spec.cls ~iid:true ~count:biased ~taken_rate:0.94
          ~predictability:0.94 ();
        Spec.cls ~iid:true ~count:hard ~taken_rate:0.5 ~predictability:0.5 ()
      ]
    ~loads_per_block:loads ~hoist_frac:hoist ~cond_depth ~inner_n:128 ~reps:6
    ()

(* A session of its own, with no store: nothing to clean up afterwards. *)
let sim = Sim.create ()

let report spec =
  let b = Sim.prepare sim spec in
  let sel = Runner.selection b in
  let spd = Sim.avg_speedup sim b ~width:4 in
  Printf.printf
    "%-22s PBC %5.1f%%  PISCS %5.1f%%  4-wide speedup %+6.2f%%\n%!"
    spec.Spec.name (Vanguard.Select.pbc sel) (Runner.piscs b) spd

let () =
  print_endline "Custom workloads through the full pipeline:";
  print_endline "";
  (* the reference point *)
  report
    (base_spec ~name:"reference" ~eligible:8 ~biased:10 ~hard:2 ~hoist:0.8
       ~loads:3.0 ~cond_depth:6);
  (* fewer convertible branches -> less speedup *)
  report
    (base_spec ~name:"few-candidates" ~eligible:3 ~biased:16 ~hard:1
       ~hoist:0.8 ~loads:3.0 ~cond_depth:6);
  (* nothing hoistable (stores open every successor) -> the predict/resolve
     split has nothing to overlap *)
  report
    (base_spec ~name:"nothing-hoistable" ~eligible:8 ~biased:10 ~hard:2
       ~hoist:0.05 ~loads:3.0 ~cond_depth:6);
  (* quick branch resolution -> little to cover in the first place *)
  report
    (base_spec ~name:"fast-resolution" ~eligible:8 ~biased:10 ~hard:2
       ~hoist:0.8 ~loads:3.0 ~cond_depth:0);
  (* unpredictable company erodes the prediction the technique leans on *)
  report
    (base_spec ~name:"noisy-neighbours" ~eligible:8 ~biased:4 ~hard:8
       ~hoist:0.8 ~loads:3.0 ~cond_depth:6);
  print_endline "";
  print_endline
    "Each knob maps to a Table 2 column: eligible share -> PBC, hoist\n\
     fraction -> PHI, condition depth -> ASPCB, hard-branch count -> MPPKI.";
  print_endline
    "The suite files (lib/workloads/suites.ml) set these per SPEC benchmark."
