open Bv_harness
open Bv_workloads

let tiny_spec =
  Spec.make ~name:"tiny-harness" ~suite:Spec.Int_2006 ~seed:21
    ~branch_classes:
      [ Spec.cls ~count:3 ~taken_rate:0.6 ~predictability:0.95 ();
        Spec.cls ~iid:true ~count:2 ~taken_rate:0.93 ~predictability:0.93 ()
      ]
    ~inner_n:64 ~reps:3 ()

let bench = lazy (Runner.prepare tiny_spec)
let sim = lazy (Sim.create ())

(* Table 2's row of a bench, its simulations through [sim]'s nodes. *)
let table2_row b =
  let sim = Lazy.force sim in
  Metrics.table2_row
    ~spd:(Sim.avg_speedup sim b ~width:4)
    ~base:(fst (Sim.pair sim b ~input:1 ~width:4))
    b

let test_geomean () =
  Alcotest.(check (float 0.0001)) "empty" 1.0 (Agg.geomean []);
  Alcotest.(check (float 0.0001)) "pair" 2.0 (Agg.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 0.01)) "speedup pct" 10.0
    (Agg.geomean_speedup_pct [ 10.0; 10.0 ]);
  Alcotest.(check (float 0.0001)) "mean" 2.0 (Agg.mean [ 1.0; 3.0 ]);
  Alcotest.(check (float 0.0001)) "max_or default" 5.0 (Agg.max_or 5.0 []);
  Alcotest.(check (float 0.0001)) "max_or" 3.0 (Agg.max_or 0.0 [ 1.0; 3.0 ])

let test_text_render () =
  let t = Text.render ~headers:[ "name"; "value" ] [ [ "a"; "1.5" ]; [ "bb"; "10.25" ] ] in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "rows" 4 (List.length lines);
  (* all lines equal width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check string) "bar" "###" (Text.bar 3.2 ~width:10 ~scale:1.0);
  Alcotest.(check string) "bar capped" "#####" (Text.bar 99.0 ~width:5 ~scale:1.0);
  Alcotest.(check string) "f1" "1.2" (Text.f1 1.25)

let test_csv () =
  let out = Text.csv ~headers:[ "a"; "b" ] [ [ "1,5"; "x\"y" ]; [ "2"; "z" ] ] in
  Alcotest.(check string) "escaped"
    "a,b\n\"1,5\",\"x\"\"y\"\n2,z" out

let test_prepare_and_metrics () =
  let b = Lazy.force bench in
  Alcotest.(check bool) "selected something" true
    ((Runner.selection b).Vanguard.Select.candidates <> []);
  Alcotest.(check bool) "piscs positive" true (Runner.piscs b > 0.0);
  Alcotest.(check bool) "static grew" true
    (Runner.experimental_static b > Runner.baseline_static b);
  let row = table2_row b in
  Alcotest.(check bool) "pbc in range" true
    (row.Metrics.pbc > 0.0 && row.Metrics.pbc <= 100.0);
  Alcotest.(check bool) "phi in range" true
    (row.Metrics.phi >= 0.0 && row.Metrics.phi <= 100.0);
  Alcotest.(check bool) "alpbb positive" true (row.Metrics.alpbb > 0.0);
  Alcotest.(check bool) "aspcb at least a load+cmp" true
    (row.Metrics.aspcb >= 4.0)

(* Two prepares that differ only in selection threshold compile the same
   baseline image, so its timing run is one node: computed once, then a
   hit. *)
let test_shared_baseline_node () =
  let t = Sim.create () in
  let b1 = Sim.prepare ~threshold:0.05 t tiny_spec in
  let b2 = Sim.prepare ~threshold:0.5 t tiny_spec in
  let config = Bv_pipeline.Config.make ~width:4 () in
  let before = Sim.counters t in
  let r1 = Sim.simulate t ~config (Runner.baseline b1 ~input:1) in
  let r2 = Sim.simulate t ~config (Runner.baseline b2 ~input:1) in
  let after = Sim.counters t in
  Alcotest.(check int) "one miss" 1 (after.Dag.misses - before.Dag.misses);
  Alcotest.(check int) "one hit" 1 (after.Dag.hits - before.Dag.hits);
  Alcotest.(check bool) "one run" true (r1 == r2)

(* The record every sim node marshals, for the suite's largest image:
   the decomposed side of cactusADM. *)
let test_record_size () =
  let b = Runner.prepare (Option.get (Suites.find "cactusADM")) in
  let img = Runner.experimental b ~input:1 in
  let run =
    Runner.simulate ~config:(Bv_pipeline.Config.make ~width:4 ()) img
  in
  let bytes = String.length (Marshal.to_string run []) in
  Alcotest.(check bool)
    (Printf.sprintf "run record %d bytes < 128 KiB" bytes)
    true (bytes < 128 * 1024)

let test_best_ge_avg () =
  let b = Lazy.force bench in
  let sim = Lazy.force sim in
  Alcotest.(check bool) "best >= avg" true
    (Sim.best_speedup sim b ~width:4 >= Sim.avg_speedup sim b ~width:4 -. 1e-9)

let test_alpbb_known () =
  let open Bv_ir in
  let open Bv_isa in
  let r = Reg.make in
  let ld d = Instr.Load { dst = r d; base = r 0; offset = 0; speculative = false } in
  let prog =
    Program.make ~main:"m" ~mem_words:2
      [ Proc.make ~name:"m"
          [ Block.make ~label:"a" ~body:[ ld 1; ld 2 ] ~term:(Term.Jump "b");
            Block.make ~label:"b" ~body:[ ld 3 ] ~term:Term.Halt
          ]
      ]
  in
  Alcotest.(check (float 0.001)) "alpbb" 1.5 (Metrics.alpbb prog)

let test_experiments_registry () =
  Alcotest.(check int) "18 experiments" 18 (List.length Experiments.all);
  Alcotest.(check bool) "find fig8" true (Experiments.find "fig8" <> None);
  Alcotest.(check bool) "find nothing" true (Experiments.find "zzz" = None);
  (* table1 is cheap: render it *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match Experiments.find "table1" with
  | Some f ->
    f ppf;
    Format.pp_print_flush ppf ()
  | None -> Alcotest.fail "table1 missing");
  Alcotest.(check bool) "mentions widths" true
    (Buffer.length buf > 200)

(* --------------------------------------------------------- run inputs *)

(* A malformed input fails before any work: non-zero exit, nothing on
   stdout, and an error that opens by naming the culprit. *)
let check_rejected what (code, stdout, stderr) ~error =
  Alcotest.(check bool) (what ^ ": exits non-zero") true (code <> 0);
  Alcotest.(check string) (what ^ ": no output") "" stdout;
  Alcotest.(check bool)
    (Printf.sprintf "%s: error starts %S (%S)" what error stderr)
    true
    (String.starts_with ~prefix:error stderr)

let test_scale_rejected () =
  List.iter
    (fun v ->
      check_rejected ("BV_SCALE=" ^ v)
        (Cli.run ~env:[ "BV_SCALE=" ^ v ] [ "run"; "-b"; "gobmk" ])
        ~error:"vanguard_cli: BV_SCALE must be a finite number > 0")
    [ "0.05x"; "0,05"; "nan"; "inf"; "-1"; "0"; "" ];
  let code, _, _ = Cli.run ~env:[ "BV_SCALE=0.05" ] [ "list" ] in
  Alcotest.(check int) "BV_SCALE=0.05 accepted" 0 code

let test_jobs_rejected () =
  List.iter
    (fun v ->
      check_rejected ("BV_JOBS=" ^ v)
        (Cli.run ~env:[ "BV_JOBS=" ^ v ] [ "experiment"; "table1" ])
        ~error:"vanguard_cli: BV_JOBS must be an integer >= 1")
    [ "0"; "-2"; "two"; "1.5"; "" ];
  let code, stdout, _ =
    Cli.run ~env:[ "BV_JOBS=2" ] [ "experiment"; "table1" ]
  in
  Alcotest.(check int) "BV_JOBS=2 accepted" 0 code;
  Alcotest.(check bool) "table1 printed" true (stdout <> "")

let test_dag_wait_rejected () =
  List.iter
    (fun v ->
      check_rejected ("BV_DAG_WAIT=" ^ v)
        (Cli.run ~env:[ "BV_DAG_WAIT=" ^ v ] [ "experiment"; "table1" ])
        ~error:"vanguard_cli: BV_DAG_WAIT must be a finite number >= 0")
    [ "5m"; "nan"; "inf"; "-1"; "" ];
  let code, _, _ = Cli.run ~env:[ "BV_DAG_WAIT=0" ] [ "list" ] in
  Alcotest.(check int) "BV_DAG_WAIT=0 accepted" 0 code

(* A report the disk cannot take is an error, not a silent success. *)
let test_full_disk () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let code, _, stderr =
    Cli.run ~env:[] [ "experiment"; "table1"; "--json"; "/dev/full" ]
  in
  Alcotest.(check bool) "exits non-zero" true (code <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "names the error (%S)" stderr)
    true
    (String.starts_with ~prefix:"error: cannot write /dev/full" stderr)

let has_line ~prefix text =
  List.exists (String.starts_with ~prefix) (String.split_on_char '\n' text)

(* A source file that parses but fails validation is an input error at
   the offending block's line, as a parse error is: exit 1, not an
   uncaught exception. *)
let test_invalid_program () =
  let path = Filename.temp_file "bv_invalid" ".s" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "proc m\nentry:\n  mov r1, #0\n  bnz r1, nowhere\nrest:\n  halt\n");
  List.iter
    (fun command ->
      let code, _, stderr = Cli.run ~env:[] [ command; path ] in
      Alcotest.(check int) (Printf.sprintf "%s exits 1 (%S)" command stderr) 1
        code;
      Alcotest.(check bool)
        (Printf.sprintf "%s names the line (%S)" command stderr)
        true
        (has_line
           ~prefix:(path ^ ":2: block entry targets unknown label nowhere")
           stderr))
    [ "assemble"; "lint"; "prove" ];
  Sys.remove path

(* A report on a full stdout is the same named error as one to a full
   file, not an exception escaping at exit. *)
let test_full_stdout () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let code, stderr =
    Cli.run_redirected ~stdout:"/dev/full" ~env:[]
      [ "experiment"; "table1"; "--json"; "-" ]
  in
  Alcotest.(check int) (Printf.sprintf "exits 1 (%S)" stderr) 1 code;
  Alcotest.(check bool)
    (Printf.sprintf "names the error (%S)" stderr)
    true
    (has_line ~prefix:"error: cannot write -: " stderr)

(* A BV_CSV export that fails names its file and fails the command, but
   only after every table and the --json report are written. *)
let test_csv_full_disk () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let dir = Filename.temp_dir "bv_csv" "" in
  let results = Filename.concat dir "results" in
  let csv = Filename.concat results "fig2.csv" in
  let report = Filename.concat dir "report.json" in
  let tables = Filename.concat dir "tables.txt" in
  Sys.mkdir results 0o755;
  Unix.symlink "/dev/full" csv;
  let code, stderr =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f || f = csv then Sys.remove f)
          [ csv; report; tables ];
        Sys.rmdir results;
        Sys.rmdir dir)
      (fun () ->
        let ((_, stderr) as got) =
          Cli.run_redirected ~cwd:dir ~stdout:tables
            ~env:[ "BV_CSV=1"; "BV_SCALE=0.05" ]
            [ "experiment"; "fig2"; "--json"; report ]
        in
        Alcotest.(check bool)
          (Printf.sprintf "tables printed (%S)" stderr)
          true
          (In_channel.with_open_text tables In_channel.input_all <> "");
        Alcotest.(check bool) "report written" true
          (Result.is_ok
             (Bv_obs.Json.of_string
                (In_channel.with_open_text report In_channel.input_all)));
        got)
  in
  Alcotest.(check int) (Printf.sprintf "exits 1 (%S)" stderr) 1 code;
  Alcotest.(check bool)
    (Printf.sprintf "names the file (%S)" stderr)
    true
    (has_line ~prefix:"  [bench] csv export failed: results/fig2.csv: " stderr)

let contains ~sub text =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* A width the machine does not come in, an input it has not got, an
   unknown benchmark, a negative fuzz count, top count or row count, a
   DBB size or path budget below 1, a store bound that is negative or
   not a number, or a correlation floor that is not finite is a usage
   error (exit 124) that names the value before any work, not an
   uncaught exception, a run on made-up input, a verdict on a machine
   that cannot exist, an emptied store or a gate that never fails. *)
let test_numeric_options_rejected () =
  List.iter
    (fun (args, names) ->
      let what = String.concat " " args in
      let code, stdout, stderr = Cli.run ~env:[ "BV_SCALE=0.05" ] args in
      Alcotest.(check int) (Printf.sprintf "%s exits 124 (%S)" what stderr)
        124 code;
      Alcotest.(check string) (what ^ ": no output") "" stdout;
      Alcotest.(check bool)
        (Printf.sprintf "%s: names %s (%S)" what names stderr)
        true
        (contains ~sub:names stderr))
    [ ([ "run"; "-b"; "gobmk"; "-w"; "3" ], "got 3");
      ([ "report"; "-b"; "gobmk"; "-w"; "5" ], "got 5");
      ([ "trace"; "-b"; "gobmk"; "-w"; "16" ], "got 16");
      ([ "advise"; "-b"; "gobmk"; "--validate"; "-w"; "1" ], "got 1");
      ([ "prove"; "--fuzz=-1" ], "got -1");
      ([ "advise"; "--fuzz=-2" ], "got -2");
      ([ "run"; "-b"; "gcc"; "--input=9" ], "got 9");
      ([ "run"; "-b"; "gcc"; "--input=-5" ], "got -5");
      ([ "report"; "-b"; "gcc"; "-i"; "3" ], "got 3");
      ([ "run"; "-b"; "nosuch" ], "unknown benchmark nosuch");
      ([ "lint"; "-b"; "nosuch" ], "unknown benchmark nosuch");
      ([ "prove"; "-b"; "nosuch"; "-b"; "mcf" ], "unknown benchmark nosuch");
      ([ "summaries"; "-b"; "gcc"; "-b"; "nosuch" ], "unknown benchmark nosuch");
      ( [ "lint"; "-b"; "gcc"; "--dbb=0" ],
        "'--dbb': expected a positive integer, got 0" );
      ( [ "prove"; "-b"; "mcf"; "--max-paths=0" ],
        "'--max-paths': expected a positive integer, got 0" );
      ( [ "report"; "-b"; "mcf"; "--top=-3" ],
        "'--top': expected an integer >= 0, got -3" );
      ( [ "trace"; "-b"; "perlbench"; "--rows=-5" ],
        "'--rows': expected a positive integer, got -5" );
      ( [ "dag"; "gc"; "--dry-run"; "--max-age-days=-1" ],
        "'--max-age-days': expected a finite number >= 0, got -1" );
      ( [ "dag"; "gc"; "--dry-run"; "--max-age-days=nan" ],
        "'--max-age-days': expected a finite number >= 0, got nan" );
      ( [ "dag"; "gc"; "--dry-run"; "--max-size-mb=-1" ],
        "'--max-size-mb': expected a finite number >= 0, got -1" );
      ( [ "dag"; "gc"; "--dry-run"; "--max-size-mb=nan" ],
        "'--max-size-mb': expected a finite number >= 0, got nan" );
      ( [ "advise"; "-b"; "gcc"; "--validate"; "--corr-floor=nan" ],
        "'--corr-floor': expected a finite number, got nan" );
      ( [ "advise"; "-b"; "gcc"; "--validate"; "--corr-floor=inf" ],
        "'--corr-floor': expected a finite number, got inf" )
    ];
  let code, _, stderr =
    Cli.run ~env:[ "BV_SCALE=0.05" ]
      [ "trace"; "-b"; "gobmk"; "-w"; "2"; "-n"; "5" ]
  in
  Alcotest.(check int) (Printf.sprintf "-w 2 accepted (%S)" stderr) 0 code;
  let code, _, stderr =
    Cli.run ~env:[ "BV_SCALE=0.05" ] [ "run"; "-b"; "gcc"; "-i"; "2" ]
  in
  Alcotest.(check int) (Printf.sprintf "-i 2 accepted (%S)" stderr) 0 code;
  let code, _, stderr = Cli.run ~env:[] [ "prove"; "--fuzz=1" ] in
  Alcotest.(check int) (Printf.sprintf "--fuzz=1 accepted (%S)" stderr) 0 code

(* An unknown id anywhere in the list stops the command before the
   experiments ahead of it run. *)
let test_experiment_ids_checked_first () =
  check_rejected "experiment table1 zzz"
    (Cli.run ~env:[] [ "experiment"; "table1"; "zzz" ])
    ~error:"unknown experiment zzz"

(* ---------------------------------------------------------- cli goldens *)

(* The simulation CLI's reports at BV_SCALE=0.05, pinned byte for byte
   without their run-dependent fields. Regenerate as Golden says, only
   after an intentional change of simulated numbers. *)

let json_of what out =
  match Bv_obs.Json.of_string out with
  | Ok json -> Golden.drop_run_fields json
  | Error e -> Alcotest.failf "%s: bad JSON: %s" what e

let cli_report args =
  let what = String.concat " " args in
  let code, out, err =
    Cli.run ~env:[ "BV_SCALE=0.05" ] (args @ [ "--json"; "-" ])
  in
  Alcotest.(check int) (Printf.sprintf "%s exits 0 (%s)" what err) 0 code;
  json_of what out

let check_golden ~file ~what json =
  Golden.check ~file ~what (Bv_obs.Json.to_string ~indent:true json ^ "\n")

(* [run --json] with the Perfetto trace beside it: the trace is large,
   so the golden holds its MD5. *)
let test_run_golden () =
  let trace = Filename.temp_file "bv_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      check_golden ~file:"cli_run_gobmk_tage.json" ~what:"run --json"
        (cli_report [ "run"; "-b"; "gobmk"; "-p"; "tage"; "--trace"; trace ]);
      check_golden ~file:"cli_run_gobmk_tage_trace.json"
        ~what:"run --trace MD5"
        (Bv_obs.Json.Obj
           [ ("md5", Bv_obs.Json.String (Digest.to_hex (Digest.file trace))) ]))

let test_report_golden () =
  check_golden ~file:"cli_report_mcf_all.json" ~what:"report --all --json"
    (cli_report [ "report"; "-b"; "mcf"; "--all" ])

let test_advise_validate_golden () =
  check_golden ~file:"cli_advise_validate_perlbench.json"
    ~what:"advise --validate --json"
    (cli_report [ "advise"; "-b"; "perlbench"; "-w"; "4"; "--validate" ])

(* The dbb sweep prints no structured table, so the golden keeps the
   printed text beside the report. *)
let test_experiment_golden () =
  let report = Filename.temp_file "bv_experiment" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove report)
    (fun () ->
      let code, text, err =
        Cli.run ~env:[ "BV_SCALE=0.05" ]
          [ "experiment"; "dbb"; "runahead"; "abl-pred"; "--json"; report ]
      in
      Alcotest.(check int) (Printf.sprintf "experiment exits 0 (%s)" err) 0
        code;
      check_golden ~file:"cli_experiment_dbb_runahead_abl-pred.json"
        ~what:"experiment dbb runahead abl-pred"
        (Bv_obs.Json.Obj
           [ ( "report",
               json_of "experiment"
                 (In_channel.with_open_text report In_channel.input_all) );
             ( "text",
               Bv_obs.Json.List
                 (List.map
                    (fun l -> Bv_obs.Json.String l)
                    (String.split_on_char '\n' text)) )
           ]))

let test_table2_row_golden () =
  check_golden ~file:"table2_row_tiny.json" ~what:"Table 2 row"
    (Metrics.row_to_json (table2_row (Lazy.force bench)))

(* Every text-mode subcommand and the input errors, pinned by the MD5 of
   exit code, stdout and stderr at BV_SCALE=0.05 with the store off. The
   CLI runs from the build tree's root, so the example paths it prints
   do not depend on where the suite runs. *)
let text_invocations =
  let ex file = "examples/" ^ file in
  let bva = [ ex "assert_straightened.bva"; ex "decomposed.bva" ] in
  [ [ "list" ];
    [ "profile"; "-b"; "astar" ];
    [ "transform"; "-b"; "omnetpp"; "--disasm" ];
    [ "disasm"; "-b"; "mcf" ];
    [ "dot"; "-b"; "gcc" ];
    [ "dot"; "--callgraph"; "--transformed"; "-b"; "gcc" ];
    [ "trace"; "-b"; "perlbench"; "-n"; "40" ];
    [ "trace"; "-b"; "perlbench"; "-n"; "40"; "--transformed" ];
    [ "lint"; "-b"; "gcc" ];
    [ "lint"; "--suites" ];
    "lint" :: bva;
    "prove" :: bva;
    [ "prove"; ex "decomposed.bva"; "-b"; "mcf"; "--fuzz"; "5" ];
    [ "summaries"; "-b"; "perlbench" ];
    [ "summaries"; ex "decomposed.bva" ];
    [ "assemble"; ex "decomposed.bva"; "--run" ];
    [ "advise"; "-b"; "gcc"; "--top"; "5" ];
    [ "report"; "-b"; "gcc" ];
    [ "run"; "-b"; "perlbench" ];
    [ "lint" ];
    [ "prove" ];
    [ "advise" ];
    [ "summaries" ];
    [ "lint"; "examples" ];
    [ "dag"; "status" ]
  ]

let test_text_digests () =
  let root = Filename.dirname (Filename.dirname (Cli.exe ())) in
  check_golden ~file:"cli_text_digests.json" ~what:"text digests"
    (Bv_obs.Json.Obj
       (List.map
          (fun args ->
            let code, out, err =
              Cli.run ~cwd:root ~env:[ "BV_SCALE=0.05" ] args
            in
            ( String.concat " " args,
              Bv_obs.Json.String
                (Digest.to_hex
                   (Digest.string
                      (String.concat "\000" [ string_of_int code; out; err ])))
            ))
          text_invocations))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A size bound past what an int holds in bytes bounds nothing: it must
   not wrap around into a negative budget that empties the store. *)
let test_gc_huge_bound () =
  let store = Filename.temp_dir "bv_gc" "" in
  let code, stdout, stderr =
    Fun.protect
      ~finally:(fun () -> remove_tree store)
      (fun () ->
        ignore
          (Dag.eval (Dag.create ~dir:store ())
             (Dag.node ~kind:"gc" ~inputs:0 (fun () -> 0))
            : int);
        Cli.run ~env:[]
          [ "dag"; "gc"; "--dir"; store; "--dry-run"; "--max-size-mb=1e300" ])
  in
  Alcotest.(check int) (Printf.sprintf "exits 0 (%S)" stderr) 0 code;
  Alcotest.(check bool)
    (Printf.sprintf "keeps the node (%S)" stdout)
    true
    (contains ~sub:"would remove 0 node(s)" stdout)

(* A report's [dag] object comes last and counts every node the command
   evaluated: on a fresh store, run --json misses gobmk's prepare node,
   and report mcf's prepare node and one sim node per side. *)
let test_dag_counts_every_node () =
  List.iter
    (fun (args, nodes) ->
      let what = String.concat " " args in
      let store = Filename.temp_dir "bv_dag" "" in
      let code, out, err =
        Fun.protect
          ~finally:(fun () -> remove_tree store)
          (fun () ->
            Cli.run
              ~env:[ "BV_SCALE=0.05"; "BV_CACHE=" ^ store ]
              (args @ [ "--json"; "-" ]))
      in
      Alcotest.(check int) (Printf.sprintf "%s exits 0 (%s)" what err) 0 code;
      match Bv_obs.Json.of_string out with
      | Ok (Bv_obs.Json.Obj fields) ->
        Alcotest.(check string) (what ^ ": dag last") "dag"
          (fst (List.nth fields (List.length fields - 1)));
        let dag = List.assoc "dag" fields in
        List.iter
          (fun counter ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s: dag %s" what counter)
              (Some nodes)
              (match Bv_obs.Json.member counter dag with
              | Some (Bv_obs.Json.Int n) -> Some n
              | _ -> None))
          [ "nodes"; "misses" ]
      | _ -> Alcotest.failf "%s: not a JSON object: %s" what out)
    [ ([ "run"; "-b"; "gobmk" ], 1); ([ "report"; "-b"; "mcf" ], 3) ]

let prop_geomean_between_min_max =
  QCheck2.Test.make ~name:"geomean between min and max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 10) (float_range 0.1 10.0))
    (fun xs ->
      let g = Agg.geomean xs in
      let mn = List.fold_left Float.min infinity xs in
      let mx = List.fold_left Float.max neg_infinity xs in
      g >= mn -. 1e-9 && g <= mx +. 1e-9)

let () =
  Alcotest.run "bv_harness"
    [ ( "agg",
        [ Alcotest.test_case "geomean" `Quick test_geomean;
          QCheck_alcotest.to_alcotest prop_geomean_between_min_max
        ] );
      ( "text",
        [ Alcotest.test_case "render" `Quick test_text_render;
          Alcotest.test_case "csv" `Quick test_csv
        ] );
      ( "runner",
        [ Alcotest.test_case "prepare/metrics" `Slow test_prepare_and_metrics;
          Alcotest.test_case "shared baseline node" `Slow
            test_shared_baseline_node;
          Alcotest.test_case "record size" `Slow test_record_size;
          Alcotest.test_case "best >= avg" `Slow test_best_ge_avg
        ] );
      ( "metrics", [ Alcotest.test_case "alpbb" `Quick test_alpbb_known ] );
      ( "cli goldens",
        [ Alcotest.test_case "run --json --trace" `Slow test_run_golden;
          Alcotest.test_case "report --all" `Slow test_report_golden;
          Alcotest.test_case "advise --validate" `Slow
            test_advise_validate_golden;
          Alcotest.test_case "experiment dbb runahead abl-pred" `Slow
            test_experiment_golden;
          Alcotest.test_case "table2 row" `Slow test_table2_row_golden;
          Alcotest.test_case "text digests" `Slow test_text_digests;
          Alcotest.test_case "dag counts every node" `Slow
            test_dag_counts_every_node
        ] );
      ( "experiments",
        [ Alcotest.test_case "registry" `Quick test_experiments_registry ] );
      ( "run inputs",
        [ Alcotest.test_case "malformed BV_SCALE" `Quick test_scale_rejected;
          Alcotest.test_case "malformed BV_JOBS" `Quick test_jobs_rejected;
          Alcotest.test_case "malformed BV_DAG_WAIT" `Quick
            test_dag_wait_rejected;
          Alcotest.test_case "dag gc size bound past an int" `Quick
            test_gc_huge_bound;
          Alcotest.test_case "--json to a full disk" `Quick test_full_disk;
          Alcotest.test_case "--json - to a full stdout" `Quick
            test_full_stdout;
          Alcotest.test_case "BV_CSV export to a full disk" `Quick
            test_csv_full_disk;
          Alcotest.test_case "experiment ids checked first" `Quick
            test_experiment_ids_checked_first;
          Alcotest.test_case "program that fails validation" `Quick
            test_invalid_program;
          Alcotest.test_case "out-of-range width and fuzz count" `Quick
            test_numeric_options_rejected
        ] )
    ]
