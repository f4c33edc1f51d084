open Bv_isa

let r = Reg.make

let check_regs = Alcotest.(check (list string))
let reg_names rs = List.map Reg.to_string rs

let test_reg_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Reg.make: -1 out of range [0, 64)")
    (fun () -> ignore (Reg.make (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Reg.make: 64 out of range [0, 64)")
    (fun () -> ignore (Reg.make 64));
  Alcotest.(check int) "count" 64 Reg.count;
  Alcotest.(check int) "index" 7 (Reg.index (r 7));
  Alcotest.(check int) "all" 64 (List.length Reg.all)

let test_defs_uses () =
  let i = Instr.Alu { op = Instr.Add; dst = r 1; src1 = r 2; src2 = Instr.Reg (r 3) } in
  check_regs "alu defs" [ "r1" ] (reg_names (Instr.defs i));
  check_regs "alu uses" [ "r2"; "r3" ] (reg_names (Instr.uses i));
  let i = Instr.Alu { op = Instr.Add; dst = r 1; src1 = r 2; src2 = Instr.Imm 5 } in
  check_regs "imm uses" [ "r2" ] (reg_names (Instr.uses i));
  let i = Instr.Load { dst = r 4; base = r 5; offset = 8; speculative = false } in
  check_regs "load defs" [ "r4" ] (reg_names (Instr.defs i));
  check_regs "load uses" [ "r5" ] (reg_names (Instr.uses i));
  let i = Instr.Store { src = r 6; base = r 7; offset = 0 } in
  check_regs "store defs" [] (reg_names (Instr.defs i));
  check_regs "store uses" [ "r6"; "r7" ] (reg_names (Instr.uses i));
  let i = Instr.Branch { on = true; src = r 8; target = "x"; id = 1 } in
  check_regs "branch defs" [] (reg_names (Instr.defs i));
  check_regs "branch uses" [ "r8" ] (reg_names (Instr.uses i));
  let i =
    Instr.Resolve
      { on = true; src = r 9; target = "x"; predicted_taken = false; id = 1 }
  in
  check_regs "resolve uses" [ "r9" ] (reg_names (Instr.uses i));
  check_regs "predict uses" []
    (reg_names (Instr.uses (Instr.Predict { target = "x"; id = 1 })))

let test_fu_class () =
  let fu = Alcotest.testable (Fmt.of_to_string (function
    | Instr.Fu_int -> "int" | Instr.Fu_fp -> "fp" | Instr.Fu_mem -> "mem"
    | Instr.Fu_branch -> "br" | Instr.Fu_none -> "none")) ( = ) in
  Alcotest.check fu "alu" Instr.Fu_int
    (Instr.fu_class (Instr.Alu { op = Instr.Add; dst = r 0; src1 = r 0; src2 = Instr.Imm 0 }));
  Alcotest.check fu "fpu" Instr.Fu_fp
    (Instr.fu_class (Instr.Fpu { op = Instr.Mul; dst = r 0; src1 = r 0; src2 = Instr.Imm 0 }));
  Alcotest.check fu "load" Instr.Fu_mem
    (Instr.fu_class (Instr.Load { dst = r 0; base = r 0; offset = 0; speculative = true }));
  Alcotest.check fu "jump" Instr.Fu_branch (Instr.fu_class (Instr.Jump "x"));
  Alcotest.check fu "predict is free" Instr.Fu_none
    (Instr.fu_class (Instr.Predict { target = "x"; id = 0 }));
  Alcotest.check fu "nop is free" Instr.Fu_none (Instr.fu_class Instr.Nop)

let test_terminators () =
  Alcotest.(check bool) "branch" true
    (Instr.is_terminator (Instr.Branch { on = true; src = r 0; target = "x"; id = 0 }));
  Alcotest.(check bool) "halt" true (Instr.is_terminator Instr.Halt);
  Alcotest.(check bool) "alu" false
    (Instr.is_terminator (Instr.Alu { op = Instr.Add; dst = r 0; src1 = r 0; src2 = Instr.Imm 0 }));
  Alcotest.(check (option string)) "target" (Some "lbl")
    (Instr.branch_target (Instr.Jump "lbl"));
  Alcotest.(check (option string)) "ret no target" None
    (Instr.branch_target Instr.Ret)

let test_eval_alu () =
  Alcotest.(check int) "add" 7 (Instr.eval_alu Instr.Add 3 4);
  Alcotest.(check int) "sub" (-1) (Instr.eval_alu Instr.Sub 3 4);
  Alcotest.(check int) "and" 0b100 (Instr.eval_alu Instr.And 0b110 0b101);
  Alcotest.(check int) "or" 0b111 (Instr.eval_alu Instr.Or 0b110 0b101);
  Alcotest.(check int) "xor" 0b011 (Instr.eval_alu Instr.Xor 0b110 0b101);
  Alcotest.(check int) "shl" 24 (Instr.eval_alu Instr.Shl 3 3);
  Alcotest.(check int) "shr" 3 (Instr.eval_alu Instr.Shr 24 3);
  Alcotest.(check int) "shr negative" (-2) (Instr.eval_alu Instr.Shr (-8) 2);
  Alcotest.(check int) "mul" 12 (Instr.eval_alu Instr.Mul 3 4);
  (* shift amounts are masked, never raising *)
  Alcotest.(check int) "shl huge amount" 0 (Instr.eval_alu Instr.Shl 1 1000 / max_int)

let test_eval_cmp () =
  let t op a b = Instr.eval_cmp op a b in
  Alcotest.(check bool) "eq" true (t Instr.Eq 5 5);
  Alcotest.(check bool) "ne" true (t Instr.Ne 5 6);
  Alcotest.(check bool) "lt" true (t Instr.Lt (-1) 0);
  Alcotest.(check bool) "ge" true (t Instr.Ge 0 0);
  Alcotest.(check bool) "le" false (t Instr.Le 1 0);
  Alcotest.(check bool) "gt" true (t Instr.Gt 1 0)

let test_pp () =
  let s i = Instr.to_string i in
  Alcotest.(check string) "load spec" "ld+ r1, [r2 + 8]"
    (s (Instr.Load { dst = r 1; base = r 2; offset = 8; speculative = true }));
  Alcotest.(check string) "branch" "bnz r3, foo  ; site 9"
    (s (Instr.Branch { on = true; src = r 3; target = "foo"; id = 9 }));
  Alcotest.(check string) "predict" "predict foo  ; site 2"
    (s (Instr.Predict { target = "foo"; id = 2 }));
  Alcotest.(check string) "resolve" "resolve.z.pt r4, fix  ; site 3"
    (s (Instr.Resolve { on = false; src = r 4; target = "fix";
                        predicted_taken = true; id = 3 }))

let test_labels () =
  Label.reset_fresh_counter ();
  let a = Label.fresh ~prefix:"x" in
  let b = Label.fresh ~prefix:"x" in
  Alcotest.(check bool) "fresh distinct" false (Label.equal a b);
  Label.reset_fresh_counter ();
  Alcotest.(check string) "deterministic" a (Label.fresh ~prefix:"x")

let test_encoded_bytes () =
  Alcotest.(check int) "fixed 4" 4 (Instr.encoded_bytes Instr.Halt);
  Alcotest.(check int) "fixed 4" 4
    (Instr.encoded_bytes (Instr.Predict { target = "x"; id = 0 }))

(* properties *)
let alu_op_gen =
  QCheck2.Gen.oneofl
    Instr.[ Add; Sub; And; Or; Xor; Shl; Shr; Mul ]

let prop_alu_total =
  QCheck2.Test.make ~name:"eval_alu total on random inputs" ~count:500
    QCheck2.Gen.(triple alu_op_gen (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (op, a, b) ->
      let v = Instr.eval_alu op a b in
      (* re-evaluation is deterministic *)
      v = Instr.eval_alu op a b)

let prop_cmp_antisymmetric =
  QCheck2.Test.make ~name:"lt/ge partition" ~count:500
    QCheck2.Gen.(pair small_signed_int small_signed_int)
    (fun (a, b) -> Instr.eval_cmp Instr.Lt a b <> Instr.eval_cmp Instr.Ge a b)

let prop_defs_uses_disjoint_store =
  QCheck2.Test.make ~name:"stores define nothing" ~count:100
    QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      Instr.defs (Instr.Store { src = r a; base = r b; offset = 0 }) = [])

(* The bitset [Regset] against the balanced-tree set it replaced, kept
   here as the reference: random operation sequences over two sets, with
   registers drawn so that both word boundaries (r31/r32) and both ends
   (r0/r63) come up often. After every step the two must agree on
   membership of every register, on emptiness, on equality, and on the
   order [elements], [fold] and [iter] visit. *)
module Tree = Set.Make (Reg)

type set_op =
  | Add of int
  | Singleton of int
  | Of_list of int list
  | Union
  | Inter
  | Diff
  | Diff_back
  | Swap
  | Clear
  | Fill

let reg_index_gen =
  QCheck2.Gen.(oneof [ oneofl [ 0; 31; 32; 63 ]; int_range 0 63 ])

let set_op_gen =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun i -> Add i) reg_index_gen);
        (2, map (fun i -> Singleton i) reg_index_gen);
        ( 2,
          map (fun l -> Of_list l) (list_size (int_range 0 12) reg_index_gen)
        );
        (2, pure Union);
        (2, pure Inter);
        (2, pure Diff);
        (2, pure Diff_back);
        (1, pure Swap);
        (1, pure Clear);
        (1, pure Fill)
      ])

let show_set_op = function
  | Add i -> Printf.sprintf "add r%d" i
  | Singleton i -> Printf.sprintf "singleton r%d" i
  | Of_list l ->
    "of_list [" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Union -> "union"
  | Inter -> "inter"
  | Diff -> "diff"
  | Diff_back -> "diff_back"
  | Swap -> "swap"
  | Clear -> "clear"
  | Fill -> "fill"

(* One step on (x, y) in both representations. *)
let step_sets op ((x, tx), (y, ty)) =
  match op with
  | Add i -> ((Regset.add (r i) x, Tree.add (r i) tx), (y, ty))
  | Singleton i -> ((x, tx), (Regset.singleton (r i), Tree.singleton (r i)))
  | Of_list l ->
    let rs = List.map r l in
    ((x, tx), (Regset.of_list rs, Tree.of_list rs))
  | Union -> ((Regset.union x y, Tree.union tx ty), (y, ty))
  | Inter -> ((Regset.inter x y, Tree.inter tx ty), (y, ty))
  | Diff -> ((Regset.diff x y, Tree.diff tx ty), (y, ty))
  | Diff_back -> ((x, tx), (Regset.diff y x, Tree.diff ty tx))
  | Swap -> ((y, ty), (x, tx))
  | Clear -> ((Regset.empty, Tree.empty), (y, ty))
  | Fill -> ((x, tx), (Regset.all, Tree.of_list Reg.all))

let agrees (s, t) =
  let idx = List.map Reg.index in
  idx (Regset.elements s) = idx (Tree.elements t)
  && idx (Regset.fold (fun r acc -> r :: acc) s [])
     = idx (Tree.fold (fun r acc -> r :: acc) t [])
  && (let seen = ref [] and want = ref [] in
      Regset.iter (fun r -> seen := Reg.index r :: !seen) s;
      Tree.iter (fun r -> want := Reg.index r :: !want) t;
      !seen = !want)
  && Bool.equal (Regset.is_empty s) (Tree.is_empty t)
  && List.for_all (fun r -> Bool.equal (Regset.mem r s) (Tree.mem r t)) Reg.all

let prop_regset_matches_tree =
  QCheck2.Test.make ~name:"bitset Regset = Set.Make (Reg)" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map show_set_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) set_op_gen)
    (fun ops ->
      let empty = (Regset.empty, Tree.empty) in
      let rec run sets = function
        | [] -> true
        | op :: rest ->
          let ((x, tx), (y, ty)) as sets = step_sets op sets in
          agrees (x, tx) && agrees (y, ty)
          && Bool.equal (Regset.equal x y) (Tree.equal tx ty)
          && run sets rest
      in
      run (empty, empty) ops)

let () =
  Alcotest.run "bv_isa"
    [ ( "reg",
        [ Alcotest.test_case "bounds" `Quick test_reg_bounds ] );
      ( "instr",
        [ Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "fu classes" `Quick test_fu_class;
          Alcotest.test_case "terminators" `Quick test_terminators;
          Alcotest.test_case "eval_alu" `Quick test_eval_alu;
          Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
          Alcotest.test_case "pretty-printing" `Quick test_pp;
          Alcotest.test_case "encoded bytes" `Quick test_encoded_bytes
        ] );
      ( "label", [ Alcotest.test_case "fresh" `Quick test_labels ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_alu_total; prop_cmp_antisymmetric;
            prop_defs_uses_disjoint_store; prop_regset_matches_tree
          ] )
    ]
