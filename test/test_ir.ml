open Bv_isa
open Bv_ir

let r = Reg.make

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    if i + nl > hl then false
    else String.equal (String.sub haystack i nl) needle || go (i + 1)
  in
  go 0
let add d a b = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Reg (r b) }
let movi d v = Instr.Mov { dst = r d; src = Instr.Imm v }
let block ?(body = []) label term = Block.make ~label ~body ~term

(* A minimal valid program: entry -> (body) -> halt. *)
let straight_line body =
  let p =
    Proc.make ~name:"main"
      [ block ~body "entry" (Term.Jump "exit"); block "exit" Term.Halt ]
  in
  Program.make ~main:"main" [ p ]

let test_block_rejects_terminators () =
  Alcotest.check_raises "terminator in body"
    (Invalid_argument "Block.make b: terminator halt in body") (fun () ->
      ignore (Block.make ~label:"b" ~body:[ Instr.Halt ] ~term:Term.Halt))

let test_block_counts () =
  let b =
    block
      ~body:
        [ movi 1 0;
          Instr.Load { dst = r 2; base = r 1; offset = 0; speculative = false };
          Instr.Load { dst = r 3; base = r 1; offset = 8; speculative = false }
        ]
      "b" Term.Halt
  in
  Alcotest.(check int) "instr_count" 4 (Block.instr_count b);
  Alcotest.(check int) "load_count" 2 (Block.load_count b)

let test_proc_shape () =
  Alcotest.check_raises "empty" (Invalid_argument "Proc.make p: no blocks")
    (fun () -> ignore (Proc.make ~name:"p" []));
  let p =
    Proc.make ~name:"p" [ block "a" (Term.Jump "b"); block "b" Term.Halt ]
  in
  Alcotest.(check string) "entry defaults to first" "a" p.Proc.entry;
  Alcotest.(check (list string)) "labels" [ "a"; "b" ] (Proc.block_labels p);
  Proc.insert_after p "a" [ block "c" (Term.Jump "b") ];
  Alcotest.(check (list string)) "insert_after" [ "a"; "c"; "b" ]
    (Proc.block_labels p);
  Proc.insert_before p "b" [ block "d" (Term.Jump "b") ];
  Alcotest.(check (list string)) "insert_before" [ "a"; "c"; "d"; "b" ]
    (Proc.block_labels p);
  Alcotest.check_raises "insert_before entry"
    (Invalid_argument "Proc.insert_before: cannot displace the entry block")
    (fun () -> Proc.insert_before p "a" []);
  Proc.append_blocks p [ block "z" Term.Halt ];
  Alcotest.(check (list string)) "append" [ "a"; "c"; "d"; "b"; "z" ]
    (Proc.block_labels p)

let test_program_segments () =
  let p = straight_line [ movi 1 1 ] in
  Alcotest.(check int) "default mem" 1 p.Program.mem_words;
  let seg b ws = { Program.base = b; contents = Array.of_list ws } in
  let prog =
    Program.make
      ~segments:[ seg 0 [ 1; 2 ]; seg 16 [ 3 ] ]
      ~main:"main"
      [ Proc.make ~name:"main" [ block "e" Term.Halt ] ]
  in
  let mem = Program.initial_memory prog in
  Alcotest.(check (list int)) "memory image" [ 1; 2; 3 ]
    [ mem.(0); mem.(1); mem.(2) ];
  Alcotest.check_raises "overlap"
    (Invalid_argument "Program.make: segments at 0 and 8 overlap") (fun () ->
      ignore
        (Program.make
           ~segments:[ seg 0 [ 1; 2 ]; seg 8 [ 3 ] ]
           ~main:"main"
           [ Proc.make ~name:"main" [ block "e" Term.Halt ] ]));
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Program.make: segment base 4 not 8-aligned") (fun () ->
      ignore
        (Program.make ~segments:[ seg 4 [ 1 ] ] ~main:"main"
           [ Proc.make ~name:"main" [ block "e" Term.Halt ] ]))

let test_program_copy_is_deep () =
  let prog = straight_line [ movi 1 1 ] in
  let copy = Program.copy prog in
  let b = Proc.find_block (Program.find_proc copy "main") "entry" in
  b.Block.body <- [];
  let orig = Proc.find_block (Program.find_proc prog "main") "entry" in
  Alcotest.(check int) "original untouched" 1 (List.length orig.Block.body)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected a validation failure"

let test_validate () =
  (* unknown target *)
  expect_invalid (fun () ->
      Layout.program
        (Program.make ~main:"m"
           [ Proc.make ~name:"m" [ block "e" (Term.Jump "nowhere") ] ]));
  (* duplicate labels *)
  expect_invalid (fun () ->
      Layout.program
        (Program.make ~main:"m"
           [ Proc.make ~name:"m"
               [ block "e" (Term.Jump "e2"); block "e2" Term.Halt;
                 block "e2" Term.Halt
               ]
           ]));
  (* duplicate branch site ids *)
  expect_invalid (fun () ->
      let br t nt = Term.Branch { on = true; src = r 1; taken = t; not_taken = nt; id = 7 } in
      Layout.program
        (Program.make ~main:"m"
           [ Proc.make ~name:"m"
               [ block "e" (br "x" "y"); block "x" (br "y" "y");
                 block "y" Term.Halt
               ]
           ]));
  (* call must return to the next block *)
  expect_invalid (fun () ->
      Layout.program
        (Program.make ~main:"m"
           [ Proc.make ~name:"m"
               [ block "e" (Term.Call { target = "f"; return_to = "after" });
                 block "pad" (Term.Jump "after"); block "after" Term.Halt
               ];
             Proc.make ~name:"f" [ block "f0" Term.Ret ]
           ]));
  (* predict without resolve *)
  expect_invalid (fun () ->
      Layout.program
        (Program.make ~main:"m"
           [ Proc.make ~name:"m"
               [ block "e" (Term.Predict { taken = "x"; not_taken = "y"; id = 5 });
                 block "y" Term.Halt; block "x" Term.Halt
               ]
           ]));
  (* call to a procedure that does not exist *)
  expect_invalid (fun () ->
      Layout.program
        (Program.make ~main:"m"
           [ Proc.make ~name:"m"
               [ block "e" (Term.Call { target = "ghost"; return_to = "after" });
                 block "after" Term.Halt
               ]
           ]))

let test_validate_ret_never_called () =
  (* a ret in a procedure no call targets can only underflow the stack *)
  (match
     Validate.check
       (Program.make ~main:"m"
          [ Proc.make ~name:"m" [ block "e" Term.Ret ] ])
   with
  | Error [ msg ] ->
    Alcotest.(check string) "reason"
      "block e returns from proc m, which is never called" msg
  | Error msgs ->
    Alcotest.failf "expected one error, got %d" (List.length msgs)
  | Ok () -> Alcotest.fail "never-called ret accepted");
  (* the same shape is fine once some call targets the proc *)
  let ok =
    Program.make ~main:"m"
      [ Proc.make ~name:"m"
          [ block "e" (Term.Call { target = "f"; return_to = "after" });
            block "after" Term.Halt
          ];
        Proc.make ~name:"f" [ block "f0" Term.Ret ]
      ]
  in
  match Validate.check ok with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "valid program rejected: %s" (List.hd msgs)

let test_layout_fallthrough () =
  let prog =
    Program.make ~main:"m"
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 1 ] "e" (Term.Jump "next");
            block "next" Term.Halt
          ]
      ]
  in
  let image = Layout.program prog in
  (* jump to the adjacent block is elided: mov, halt *)
  Alcotest.(check int) "elided jump" 2 (Array.length image.Layout.code);
  Alcotest.(check int) "static bytes" 8 (Layout.static_bytes image);
  let prog2 =
    Program.make ~main:"m"
      [ Proc.make ~name:"m"
          [ block "e" (Term.Jump "far"); block "mid" (Term.Jump "far");
            block "far" Term.Halt
          ]
      ]
  in
  let image2 = Layout.program prog2 in
  (* e needs an explicit jump over mid; mid falls through into far *)
  Alcotest.(check int) "explicit jump" 2 (Array.length image2.Layout.code);
  Alcotest.(check int) "resolve far" 1 (Layout.resolve image2 "far")

let test_layout_branch_lowering () =
  let prog =
    Program.make ~main:"m"
      [ Proc.make ~name:"m"
          [ block "e"
              (Term.Branch
                 { on = true; src = r 1; taken = "t"; not_taken = "nt"; id = 1 });
            block "nt" (Term.Jump "x"); block "t" (Term.Jump "x");
            block "x" Term.Halt
          ]
      ]
  in
  let image = Layout.program prog in
  (match image.Layout.code.(0) with
  | Instr.Branch { target; _ } -> Alcotest.(check string) "taken target" "t" target
  | i -> Alcotest.failf "expected branch, got %s" (Instr.to_string i));
  (* disassembly mentions every label *)
  let dis = Format.asprintf "%a" Layout.pp_disassembly image in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("disasm has " ^ l) true (contains dis l))
    [ "e:"; "nt:"; "t:"; "x:" ]

let test_layout_calls_and_decomposed () =
  let prog =
    Program.make ~main:"m"
      [ Proc.make ~name:"m"
          [ block "e" (Term.Call { target = "f"; return_to = "back" });
            block "back"
              (Term.Predict { taken = "rt"; not_taken = "rnt"; id = 4 });
            block "rnt"
              (Term.Resolve
                 { on = true; src = r 1; mispredict = "fix";
                   fallthrough = "cont"; predicted_taken = false; id = 4 });
            block "cont" Term.Halt;
            block "rt"
              (Term.Resolve
                 { on = true; src = r 1; mispredict = "fix";
                   fallthrough = "cont2"; predicted_taken = true; id = 4 });
            block "cont2" Term.Halt;
            block "fix" (Term.Jump "cont")
          ];
        Proc.make ~name:"f" [ block "f0" Term.Ret ]
      ]
  in
  let image = Layout.program prog in
  (match image.Layout.code.(0) with
  | Instr.Call t -> Alcotest.(check string) "call target" "f" t
  | i -> Alcotest.failf "expected call, got %s" (Instr.to_string i));
  (match image.Layout.code.(1) with
  | Instr.Predict { target; id } ->
    Alcotest.(check string) "predict target" "rt" target;
    Alcotest.(check int) "predict id" 4 id
  | i -> Alcotest.failf "expected predict, got %s" (Instr.to_string i));
  (* the rnt resolve falls through to cont, so no jump is emitted for it *)
  (match image.Layout.code.(2) with
  | Instr.Resolve { predicted_taken; _ } ->
    Alcotest.(check bool) "pnt first" false predicted_taken
  | i -> Alcotest.failf "expected resolve, got %s" (Instr.to_string i));
  (* procedure name resolves to its entry pc *)
  Alcotest.(check int) "proc label = entry pc" (Layout.resolve image "f0")
    (Layout.resolve image "f")

(* [image.targets] is [Layout.resolve] of each instruction's label, done
   once at layout, and -1 where there is no label. *)
let check_targets what image =
  let label = function
    | Instr.Branch { target; _ }
    | Instr.Jump target
    | Instr.Call target
    | Instr.Predict { target; _ }
    | Instr.Resolve { target; _ } ->
      Some target
    | _ -> None
  in
  Alcotest.(check int)
    (what ^ " targets length")
    (Array.length image.Layout.code)
    (Array.length image.Layout.targets);
  Array.iteri
    (fun pc i ->
      let want =
        match label i with Some l -> Layout.resolve image l | None -> -1
      in
      if image.Layout.targets.(pc) <> want then
        Alcotest.failf "%s: pc %d (%s): target %d, resolve gives %d" what pc
          (Instr.to_string i) image.Layout.targets.(pc) want)
    image.Layout.code

let test_layout_targets () =
  let open Bv_workloads in
  (* every benchmark, shrunk, before and after decomposing every
     shape-valid site (so predicts and resolves are laid out too) *)
  let predicts = ref 0 in
  List.iter
    (fun s ->
      let prog = Gen.generate ~input:1 { s with Spec.inner_n = 16; reps = 2 } in
      let image = Layout.program (Program.copy prog) in
      check_targets (s.Spec.name ^ " baseline") image;
      let profile =
        Bv_profile.Profile.collect
          ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Tournament)
          image
      in
      let sel =
        Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog
      in
      let result =
        Vanguard.Transform.apply ~exit_live:Gen.live_at_exit
          ~candidates:sel.Vanguard.Select.candidates prog
      in
      let image = Layout.program result.Vanguard.Transform.program in
      check_targets (s.Spec.name ^ " transformed") image;
      Array.iter
        (function Instr.Predict _ -> incr predicts | _ -> ())
        image.Layout.code)
    Suites.all;
  Alcotest.(check bool) "transformed images hold predicts" true
    (!predicts > 0);
  for seed = 0 to 24 do
    check_targets
      (Printf.sprintf "fuzz %d" seed)
      (Layout.program (Fuzzgen.generate ~seed))
  done

let test_validate_entry_not_first () =
  match
    Program.make ~main:"m"
      [ { Proc.name = "m"; entry = "b";
          blocks = [ block "a" (Term.Jump "b"); block "b" Term.Halt ]
        }
      ]
    |> Layout.program
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "entry-not-first accepted"

let test_cfg () =
  let br = Term.Branch { on = true; src = r 1; taken = "c"; not_taken = "b"; id = 1 } in
  let p =
    Proc.make ~name:"m"
      [ block "a" br; block "b" (Term.Jump "d"); block "c" (Term.Jump "d");
        block "d" Term.Halt
      ]
  in
  let g = Cfg.make p in
  let a = Cfg.number g "a" in
  let labels = Array.map (Cfg.label g) in
  Alcotest.(check (array string)) "succs" [| "c"; "b" |]
    (labels g.Cfg.succs.(a));
  Alcotest.(check (list string)) "preds of d" [ "b"; "c" ]
    (List.sort compare (Array.to_list (labels g.Cfg.preds.(Cfg.number g "d"))));
  let rpo = g.Cfg.rpo in
  Alcotest.(check string) "rpo starts at entry" "a" (Cfg.label g rpo.(0));
  Alcotest.(check int) "rpo complete" 4 (Array.length rpo);
  Alcotest.(check bool) "forward" true (Cfg.is_forward_branch g a);
  (* backward branch *)
  let p2 =
    Proc.make ~name:"m"
      [ block "top" (Term.Jump "loop");
        block "loop"
          (Term.Branch
             { on = true; src = r 1; taken = "loop"; not_taken = "out"; id = 2 });
        block "out" Term.Halt
      ]
  in
  let g2 = Cfg.make p2 in
  Alcotest.(check bool) "backward" false
    (Cfg.is_forward_branch g2 (Cfg.number g2 "loop"))

(* The graph against the label-table helpers it replaced: successors in
   terminator order, one predecessor entry per edge in their order (the
   latest block first), and the same reverse postorder. *)
let prop_cfg_matches_reference =
  QCheck2.Test.make ~name:"Cfg.make = label-table reference" ~count:500
    ~print:Cfg_ref.print_proc Cfg_ref.gen_proc (fun p ->
      let g = Cfg.make p in
      let labels a = List.map (Cfg.label g) (Array.to_list a) in
      let preds = Cfg_ref.predecessor_map p in
      List.for_all
        (fun b ->
          let i = Cfg.number g b.Block.label in
          labels g.Cfg.succs.(i) = Term.successors b.Block.term
          && labels g.Cfg.preds.(i) = Label.Tbl.find preds b.Block.label)
        p.Proc.blocks
      && labels g.Cfg.rpo = Cfg_ref.reverse_postorder p)

let test_liveness () =
  (* diamond: r1 read on one side only, r2 written both sides *)
  let br = Term.Branch { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 } in
  let p =
    Proc.make ~name:"m"
      [ block ~body:[ movi 1 10; movi 5 1 ] "a" br;
        block ~body:[ add 2 1 1 ] "b" (Term.Jump "d");
        block ~body:[ movi 2 0 ] "c" (Term.Jump "d");
        block ~body:[ add 3 2 2 ] "d" Term.Halt
      ]
  in
  let live = Liveness.compute ~exit_live:Liveness.Regset.empty (Cfg.make p) in
  let mem l reg = Liveness.Regset.mem (r reg) (Liveness.live_in live l) in
  Alcotest.(check bool) "r1 live into b" true (mem "b" 1);
  Alcotest.(check bool) "r1 dead into c" false (mem "c" 1);
  Alcotest.(check bool) "r2 live into d" true (mem "d" 2);
  Alcotest.(check bool) "r2 dead into b (redefined)" false (mem "b" 2);
  Alcotest.(check bool) "r5 live into a" false (mem "a" 5);
  (* exit_live makes r3 matter *)
  let live2 =
    Liveness.compute ~exit_live:(Liveness.Regset.singleton (r 9)) (Cfg.make p)
  in
  Alcotest.(check bool) "exit live propagates" true
    (Liveness.Regset.mem (r 9) (Liveness.live_in live2 "a"))

let test_liveness_loop () =
  let p =
    Proc.make ~name:"m"
      [ block ~body:[ movi 1 0 ] "e" (Term.Jump "loop");
        block ~body:[ add 1 1 1; Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm 10 } ]
          "loop"
          (Term.Branch
             { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 1 });
        block "out" Term.Halt
      ]
  in
  let live = Liveness.compute ~exit_live:Liveness.Regset.empty (Cfg.make p) in
  Alcotest.(check bool) "loop-carried r1" true
    (Liveness.Regset.mem (r 1) (Liveness.live_in live "loop"))

let () =
  Alcotest.run "bv_ir"
    [ ( "block",
        [ Alcotest.test_case "rejects terminators" `Quick
            test_block_rejects_terminators;
          Alcotest.test_case "counts" `Quick test_block_counts
        ] );
      ( "proc",
        [ Alcotest.test_case "shape and edits" `Quick test_proc_shape ] );
      ( "program",
        [ Alcotest.test_case "segments" `Quick test_program_segments;
          Alcotest.test_case "deep copy" `Quick test_program_copy_is_deep
        ] );
      ( "validate",
        [ Alcotest.test_case "rejections" `Quick test_validate;
          Alcotest.test_case "ret in never-called proc" `Quick
            test_validate_ret_never_called
        ] );
      ( "layout",
        [ Alcotest.test_case "fallthrough elision" `Quick
            test_layout_fallthrough;
          Alcotest.test_case "branch lowering" `Quick
            test_layout_branch_lowering;
          Alcotest.test_case "calls + decomposed" `Quick
            test_layout_calls_and_decomposed;
          Alcotest.test_case "entry not first" `Quick
            test_validate_entry_not_first;
          Alcotest.test_case "targets = resolve" `Quick test_layout_targets
        ] );
      ( "cfg",
        [ Alcotest.test_case "basics" `Quick test_cfg;
          QCheck_alcotest.to_alcotest prop_cfg_matches_reference
        ] );
      ( "liveness",
        [ Alcotest.test_case "diamond" `Quick test_liveness;
          Alcotest.test_case "loop-carried" `Quick test_liveness_loop
        ] )
    ]
