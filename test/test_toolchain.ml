(* Assembler, dominators, DOT export, and goldens of the analysis
   commands' JSON reports. *)

open Bv_isa
open Bv_ir

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    if i + nl > hl then false
    else String.equal (String.sub haystack i nl) needle || go (i + 1)
  in
  go 0

(* ------------------------------------------------------------ assembler *)

let kernel_text =
  {|
; a predictable 60/40 hammock over a condition stream
.memory 64
.data 0 1 0 1 1 0 1 0 1
.main main

proc main
entry:
  mov   r1, #0
  mov   r6, #0
head:
  shl   r2, r1, #3
  ld    r4, [r2 + 0]
  cmp.ne r5, r4, #0
  bnz   r5, then        ; site 1
else:
  add   r6, r6, #1
  jmp   latch
then:
  add   r6, r6, #2
latch:
  add   r1, r1, #1
  cmp.lt r5, r1, #8
  bnz   r5, head        ; site 2
out:
  st    r6, [r2 + 256]
  halt
|}

let test_asm_kernel () =
  let prog = Asm.program kernel_text in
  let image = Layout.program prog in
  let st = Bv_exec.Interp.run image in
  (* stream 1 0 1 1 0 1 0 1: five takens (+2), three not (+1) = 13 *)
  Alcotest.(check int) "result" 13 st.Bv_exec.Interp.mem.((56 + 256) / 8);
  Alcotest.(check bool) "halts" true st.Bv_exec.Interp.halted

let test_asm_single_instructions () =
  let i = Alcotest.testable Instr.pp ( = ) in
  let r = Reg.make in
  Alcotest.check i "mov imm" (Instr.Mov { dst = r 3; src = Instr.Imm (-7) })
    (Asm.instruction "  mov r3, #-7");
  Alcotest.check i "spec load"
    (Instr.Load { dst = r 4; base = r 2; offset = 16; speculative = true })
    (Asm.instruction "ld+ r4, [r2 + 16]");
  Alcotest.check i "store"
    (Instr.Store { src = r 6; base = r 0; offset = 8 })
    (Asm.instruction "st r6, [r0 + 8]");
  Alcotest.check i "fpu"
    (Instr.Fpu { op = Instr.Mul; dst = r 7; src1 = r 7; src2 = Instr.Imm 3 })
    (Asm.instruction "fmul r7, r7, #3");
  Alcotest.check i "cmov"
    (Instr.Cmov { on = false; cond = r 5; dst = r 6; src = Instr.Reg (r 7) })
    (Asm.instruction "cmov.z r5, r6, r7");
  Alcotest.check i "resolve"
    (Instr.Resolve
       { on = true; src = r 5; target = "fix"; predicted_taken = false; id = 9 })
    (Asm.instruction "resolve.nz.pnt r5, fix ; site 9");
  Alcotest.check i "branch site"
    (Instr.Branch { on = false; src = r 1; target = "x"; id = 42 })
    (Asm.instruction "bz r1, x ; site 42")

let test_asm_errors () =
  let expect_error text =
    match Asm.program text with
    | exception Asm.Parse_error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "proc m\nb:\n  mov r99, #0\n  halt\n";
  expect_error "proc m\nb:\n  frobnicate r1, r2, r3\n  halt\n";
  expect_error "  mov r1, #0\n";
  (* instruction before any label *)
  expect_error "proc m\nb:\n  mov r1, #0\n";
  (* falls through past the end *)
  expect_error "proc m\nb:\n  jmp nowhere\n"

let test_asm_disasm_roundtrip () =
  (* assemble, lay out, recover, re-lay out: the instruction streams agree *)
  let img = Layout.program (Asm.program kernel_text) in
  let img2 = Layout.program (Recover.image img) in
  Alcotest.(check int) "lengths" (Array.length img.Layout.code)
    (Array.length img2.Layout.code);
  Alcotest.(check int) "digests"
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img))
    (Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img2))

(* ----------------------------------------------------------- dominators *)

let diamond () =
  Asm.program
    {|
proc m
a:
  mov r1, #1
  cmp.ne r5, r1, #0
  bnz r5, c
b:
  mov r2, #1
  jmp d
c:
  mov r2, #2
d:
  halt
|}

let test_dominators_diamond () =
  let p = Program.find_proc (diamond ()) "m" in
  let t = Dominators.compute (Cfg.make p) in
  Alcotest.(check bool) "a dom d" true (Dominators.dominates t "a" "d");
  Alcotest.(check bool) "b !dom d" false (Dominators.dominates t "b" "d");
  Alcotest.(check bool) "reflexive" true (Dominators.dominates t "c" "c");
  Alcotest.(check (option string)) "idom d" (Some "a") (Dominators.idom t "d");
  Alcotest.(check (option string)) "idom entry" None (Dominators.idom t "a");
  let tree = Dominators.dominator_tree t in
  Alcotest.(check (list (pair string (list string))))
    "tree"
    [ ("a", [ "b"; "c"; "d" ]); ("b", []); ("c", []); ("d", []) ]
    tree

let test_dominators_after_transform () =
  (* structural invariant: the predict block dominates both resolution
     blocks, and each resolution block dominates its commit block *)
  let prog =
    Asm.program
      {|
.memory 64
.data 0 1 0 0 1 1 0 1 0
proc m
e:
  mov r1, #0
  mov r6, #0
head:
  shl r2, r1, #3
  ld r4, [r2 + 0]
  cmp.ne r5, r4, #0
  bnz r5, c ; site 1
b:
  ld r10, [r2 + 8]
  add r6, r6, r10
  jmp latch
c:
  add r6, r6, #2
latch:
  add r1, r1, #1
  cmp.lt r5, r1, #8
  bnz r5, head ; site 2
out:
  halt
|}
  in
  let cand =
    { Vanguard.Select.proc = "m"; block = "head"; site = 1; bias = 0.6;
      predictability = 0.9; executed = 8 }
  in
  let result = Vanguard.Transform.apply ~candidates:[ cand ] prog in
  let p = Program.find_proc result.Vanguard.Transform.program "m" in
  let t = Dominators.compute (Cfg.make p) in
  Alcotest.(check bool) "predict dominates A'nt" true
    (Dominators.dominates t "head" "head@rnt.1");
  Alcotest.(check bool) "predict dominates A't" true
    (Dominators.dominates t "head" "head@rt.1");
  Alcotest.(check bool) "A'nt dominates its commit" true
    (Dominators.dominates t "head@rnt.1" "head@commitB.1");
  Alcotest.(check bool) "A'nt dominates its correction" true
    (Dominators.dominates t "head@rnt.1" "head@fixC.1");
  Alcotest.(check bool) "A't does not dominate B's commit" false
    (Dominators.dominates t "head@rt.1" "head@commitB.1")

let test_dominators_unreachable () =
  let prog =
    Asm.program
      "proc m\na:\n  jmp c\ndead:\n  jmp c\nc:\n  halt\n"
  in
  let p = Program.find_proc prog "m" in
  let t = Dominators.compute (Cfg.make p) in
  Alcotest.(check bool) "unreachable not dominated" false
    (Dominators.dominates t "a" "dead");
  Alcotest.(check bool) "unreachable self" true
    (Dominators.dominates t "dead" "dead");
  Alcotest.(check (option string)) "no idom" None (Dominators.idom t "dead")

(* Cooper-Harvey-Kennedy against the [Set.Make (String)] fixpoint it
   replaced: [dominates] on every pair of labels, [idom] of every label
   and the whole dominator tree, on arbitrary small procedures. *)
let same_dominators proc =
  let want = Cfg_ref.Dominators.compute proc in
  let got = Dominators.compute (Cfg.make proc) in
  let labels = "nowhere" :: Proc.block_labels proc in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          Bool.equal
            (Cfg_ref.Dominators.dominates want a b)
            (Dominators.dominates got a b))
        labels)
    labels
  && List.for_all
       (fun b ->
         Option.equal String.equal
           (Cfg_ref.Dominators.idom want b)
           (Dominators.idom got b))
       labels
  && Cfg_ref.Dominators.dominator_tree want = Dominators.dominator_tree got

let prop_chk_dominators =
  QCheck2.Test.make ~name:"CHK dominators = Set.Make (String) reference"
    ~count:1000 ~print:Cfg_ref.print_proc Cfg_ref.gen_proc same_dominators

(* The shapes the property must meet, counted over the generator's first
   1000 procedures at a fixed seed: blocks unreachable from the entry,
   edges into the entry, and irreducible cycles (a retreating edge whose
   target does not dominate its source). *)
let test_generator_shapes () =
  let rand = Random.State.make [| 20 |] in
  let unreachable = ref 0 and entry_preds = ref 0 and irreducible = ref 0 in
  for _ = 1 to 1000 do
    let proc = QCheck2.Gen.generate1 ~rand Cfg_ref.gen_proc in
    let g = Cfg.make proc in
    let dom = Dominators.compute g in
    if Array.length g.Cfg.rpo < Cfg.size g then incr unreachable;
    if g.Cfg.preds.(0) <> [||] then incr entry_preds;
    let on_stack = Array.make (Cfg.size g) false in
    let seen = Array.make (Cfg.size g) false in
    let found = ref false in
    let rec dfs u =
      seen.(u) <- true;
      on_stack.(u) <- true;
      Array.iter
        (fun v ->
          if on_stack.(v) && not (Dominators.dominates_at dom v u) then
            found := true
          else if not seen.(v) then dfs v)
        g.Cfg.succs.(u);
      on_stack.(u) <- false
    in
    dfs 0;
    if !found then incr irreducible
  done;
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s: %d / 1000" what n) true (n >= 10))
    [ ("unreachable blocks", !unreachable);
      ("edges into the entry", !entry_preds);
      ("irreducible cycles", !irreducible)
    ]

(* ------------------------------------------------------------------ dot *)

let test_dot_output () =
  let prog = diamond () in
  let s = Format.asprintf "%a" (Dot.program ~bodies:true) prog in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("has " ^ frag) true (contains s frag))
    [ "digraph"; "cluster_0"; "m::a"; "taken"; "fall"; "mov r2, #1" ];
  let p = Program.find_proc prog "m" in
  let s2 = Format.asprintf "%a" (Dot.proc ~bodies:false) p in
  Alcotest.(check bool) "compact has no instrs" false (contains s2 "mov r2");
  (* call edges *)
  let prog2 =
    Asm.program
      "proc m\ne:\n  call f\nafter:\n  halt\nproc f\nf0:\n  ret\n"
  in
  let s3 = Format.asprintf "%a" (Dot.program ~bodies:false) prog2 in
  Alcotest.(check bool) "call edge" true (contains s3 "style=dashed")

(* ------------------------------------------------------- report goldens *)

(* The JSON reports of [prove], [lint] and [advise] on four benchmarks,
   pinned byte for byte so that a change to the analyses' data
   structures cannot move a verdict, a diagnostic or a cost figure
   unseen. The DAG counters and timings are dropped: they describe the
   run, not its result.

   Regenerating (only after an intentional analysis change):

     dune build && BV_GOLDEN_DIR=test/goldens dune exec test/test_toolchain.exe

   from the repository root rewrites the files in place (the first step
   builds the CLI the cases run). *)

let test_report_golden (command, bench) () =
  let code, out, _ =
    Cli.run ~env:[ "BV_SCALE=0.25" ] [ command; "-b"; bench; "--json"; "-" ]
  in
  Alcotest.(check int) (command ^ " exits 0") 0 code;
  match Bv_obs.Json.of_string out with
  | Error e -> Alcotest.failf "%s -b %s: bad JSON: %s" command bench e
  | Ok json ->
    Golden.check
      ~file:(Printf.sprintf "toolchain_%s_%s.json" command bench)
      ~what:(Printf.sprintf "%s -b %s report" command bench)
      (Bv_obs.Json.to_string ~indent:true (Golden.drop_run_fields json) ^ "\n")

(* Digests of every benchmark's compiled code and analysis reports at
   BV_SCALE=0.25: the scheduled baseline and the transformed disassembly
   of REF input 1, and the JSON of [prove], [lint] and [advise], without
   and with --interproc. One file pins the whole suite, so a change to
   the scheduler or to an analysis kernel that moves any output on any
   benchmark fails here with the benchmark and the artifact named.
   Regenerate as the report goldens above. *)

let digest s = Digest.to_hex (Digest.string s)

let bench_digests spec =
  let name = spec.Bv_workloads.Spec.name in
  let b = Bv_harness.Runner.prepare spec in
  let disasm image = digest (Format.asprintf "%a" Layout.pp_disassembly image) in
  let report command interproc =
    let args =
      [ command; "-b"; name; "--json"; "-" ]
      @ if interproc then [ "--interproc" ] else []
    in
    let code, out, _ = Cli.run ~env:[ "BV_SCALE=0.25" ] args in
    if code <> 0 then
      Alcotest.failf "%s exits %d" (String.concat " " args) code;
    match Bv_obs.Json.of_string out with
    | Error e -> Alcotest.failf "%s: bad JSON: %s" (String.concat " " args) e
    | Ok json -> digest (Bv_obs.Json.to_string (Golden.drop_run_fields json))
  in
  ( name,
    [ ("baseline_disasm",
       disasm (Bv_harness.Runner.baseline_program b ~input:1));
      ("transformed_disasm",
       disasm (Bv_harness.Runner.experimental_program b ~input:1))
    ]
    @ List.concat_map
        (fun command ->
          [ (command, report command false);
            (command ^ "_interproc", report command true)
          ])
        [ "prove"; "lint"; "advise" ] )

let test_suite_digests () =
  (* the in-process half reads the scale the CLI half is given *)
  Unix.putenv "BV_SCALE" "0.25";
  let got = List.map bench_digests Bv_workloads.Suites.all in
  let to_json digests =
    Bv_obs.Json.Obj
      (List.map
         (fun (bench, ds) ->
           ( bench,
             Bv_obs.Json.Obj
               (List.map (fun (k, d) -> (k, Bv_obs.Json.String d)) ds) ))
         digests)
  in
  let file = "toolchain_digests.json" in
  match Sys.getenv_opt "BV_GOLDEN_DIR" with
  | Some _ ->
    Golden.check ~file ~what:"suite digests"
      (Bv_obs.Json.to_string ~indent:true (to_json got) ^ "\n")
  | None ->
    let want =
      match
        Bv_obs.Json.of_string
          (In_channel.with_open_text (Filename.concat "goldens" file)
             In_channel.input_all)
      with
      | Ok json -> json
      | Error e -> Alcotest.failf "%s: %s" file e
    in
    let stale =
      List.concat_map
        (fun (bench, ds) ->
          List.filter_map
            (fun (k, d) ->
              match
                Option.bind (Bv_obs.Json.member bench want)
                  (Bv_obs.Json.member k)
              with
              | Some (Bv_obs.Json.String w) when String.equal w d -> None
              | _ -> Some (bench ^ " " ^ k))
            ds)
        got
    in
    Alcotest.(check (list string)) "artifacts whose digest moved" [] stale;
    Alcotest.(check int) "benchmarks pinned" (List.length got)
      (match want with Bv_obs.Json.Obj fields -> List.length fields | _ -> 0)

let report_cases =
  List.concat_map
    (fun command ->
      List.map
        (fun bench ->
          Alcotest.test_case
            (Printf.sprintf "%s -b %s" command bench)
            `Quick
            (test_report_golden (command, bench)))
        [ "perlbench"; "gcc"; "mcf"; "lbm" ])
    [ "prove"; "lint"; "advise" ]

let () =
  Alcotest.run "toolchain"
    [ ( "asm",
        [ Alcotest.test_case "kernel" `Quick test_asm_kernel;
          Alcotest.test_case "instructions" `Quick test_asm_single_instructions;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "asm/recover roundtrip" `Quick
            test_asm_disasm_roundtrip
        ] );
      ( "dominators",
        [ Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "transform invariants" `Quick
            test_dominators_after_transform;
          Alcotest.test_case "unreachable" `Quick test_dominators_unreachable;
          Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
          QCheck_alcotest.to_alcotest prop_chk_dominators
        ] );
      ( "dot", [ Alcotest.test_case "output" `Quick test_dot_output ] );
      ("report goldens", report_cases);
      ( "suite digests",
        [ Alcotest.test_case "55 benchmarks" `Quick test_suite_digests ] )
    ]
