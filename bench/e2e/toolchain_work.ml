(* The toolchain workload: every TRAIN program of the four suites through
   the compiler and the static analyses, then a fuzz corpus through the
   translation validator — the lint / prove / advise traffic, with no
   timing model at all. *)

open Bv_ir
open Bv_workloads
module A = Bv_analysis

(* Fuzz programs validated per round (the same seeds every round). *)
let fuzz_per_round = 60

let scratch = Vanguard.Transform.default_temp_pool
let exit_live = Gen.live_at_exit

let error_diagnostics = ref 0
let sites_transformed : (string, int) Hashtbl.t = Hashtbl.create 64

let clean what ds =
  let n = A.Diagnostic.count A.Diagnostic.Error ds in
  error_diagnostics := !error_diagnostics + n;
  Obs.check (n = 0) "%s: %d error diagnostic(s)" what n

let baseline_image prog =
  Obs.span "sched.schedule" (fun () ->
      let p = Program.copy prog in
      Bv_sched.Sched.schedule_program p;
      Layout.program p)

(* One benchmark through `lint`, `prove` and `advise`, with and without
   interprocedural summaries. *)
let target (name, prog) =
  let profile =
    let image = baseline_image prog in
    Obs.span "profile.collect" (fun () ->
        Bv_profile.Profile.collect
          ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
          image)
  in
  let candidates =
    Obs.span "core.select" (fun () ->
        (Vanguard.Select.select ~profile prog).Vanguard.Select.candidates)
  in
  let summarize p = Obs.span "analysis.summary" (fun () -> A.Summary.compute p) in
  let summaries = summarize prog in
  let transform ?summaries () =
    Obs.span "core.transform" (fun () ->
        Vanguard.Transform.apply ?summaries ~exit_live ~candidates prog)
  in
  let plain = transform () in
  Hashtbl.replace sites_transformed name
    (List.length plain.Vanguard.Transform.reports);
  let plain = plain.Vanguard.Transform.program in
  let interproc = (transform ~summaries ()).Vanguard.Transform.program in
  let checked label transformed summaries =
    clean
      (name ^ label ^ " lint")
      (Obs.span "analysis.lint" (fun () ->
           A.Speculation.verify ~scratch ?summaries transformed))
    && clean
         (name ^ label ^ " prove")
         (Obs.span "analysis.equiv" (fun () ->
              A.Equiv.verify ~scratch ~exit_live ~original:prog transformed
              @ A.Equiv.verify_self ~scratch ~exit_live transformed))
  in
  let advise summaries =
    Obs.span "analysis.advise" (fun () ->
        A.Advisor.advise ~profile
          (A.Costmodel.analyze ~exit_live ?summaries prog))
  in
  ignore (advise None);
  ignore (advise (Some summaries));
  checked ":plain" plain None
  && checked ":interproc" interproc (Some (summarize interproc))

(* One fuzz program through `prove --fuzz`. *)
let fuzz (seed, prog) =
  let image = Obs.span "sched.schedule" (fun () -> Layout.program (Program.copy prog)) in
  let profile =
    Obs.span "profile.collect" (fun () ->
        Bv_profile.Profile.collect
          ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Always_not_taken)
          image)
  in
  let candidates =
    Obs.span "core.select" (fun () ->
        (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog)
          .Vanguard.Select.candidates)
  in
  let transformed =
    Obs.span "core.transform" (fun () -> Vanguard.Transform.apply ~candidates prog)
  in
  clean
    (Printf.sprintf "fuzz:%d" seed)
    (Obs.span "analysis.equiv" (fun () ->
         A.Equiv.verify ~scratch ~original:prog
           transformed.Vanguard.Transform.program))

let workload ~seed =
  let targets = ref [] and corpus = ref [] in
  { Obs.sensitivity = 1.5;
    setup =
      (fun () ->
        targets :=
          List.map
            (fun spec ->
              let spec = Sim_work.scaled ~seed spec in
              ( spec.Spec.name,
                Obs.span "workloads.gen" (fun () -> Gen.generate ~input:0 spec) ))
            Suites.all;
        corpus :=
          List.init fuzz_per_round (fun i ->
              let seed = (10000 * seed) + i in
              (seed, Obs.span "workloads.gen" (fun () -> Fuzzgen.generate ~seed))));
    round =
      (fun _ ->
        List.iter (fun t -> Obs.op ~key:("target:" ^ fst t) (fun () -> target t)) !targets;
        List.iter
          (fun f -> Obs.op ~key:(Printf.sprintf "fuzz:%d" (fst f)) (fun () -> fuzz f))
          !corpus);
    probe = ignore;
    layers =
      (fun () ->
        let ms =
          Hashtbl.fold
            (fun k times acc ->
              if String.starts_with ~prefix:"target:" k then
                List.map (fun s -> 1000.0 *. s) times @ acc
              else acc)
            Obs.op_times []
        in
        [ ("toolchain.target_ms.p50", Obs.percentile 50.0 ms);
          ("toolchain.target_ms.p95", Obs.percentile 95.0 ms);
          ("analysis.error_diagnostics", Float.of_int !error_diagnostics);
          ( "core.sites_transformed",
            Float.of_int (Hashtbl.fold (fun _ n a -> a + n) sites_transformed 0) )
        ])
  }
