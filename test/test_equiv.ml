(* Translation validation stack: Symexec normalization, Alias verdicts,
   alias-aware scheduling, Equiv accept/reject, and the mutation-kill
   property (seeded semantic mutations of transformed programs must all
   be refuted while unmutated outputs all prove equivalent). *)

open Bv_isa
open Bv_ir
module S = Bv_analysis.Symexec
module Alias = Bv_analysis.Alias
module Equiv = Bv_analysis.Equiv
module Diagnostic = Bv_analysis.Diagnostic

let r = Reg.make
let scratch = Vanguard.Transform.default_temp_pool
let gen_program seed = Bv_workloads.Fuzzgen.generate ~seed

let errors diags = List.filter Diagnostic.is_error diags

(* -------------------------------------------------------------- symexec *)

let test_symexec_normalization () =
  let ctx = S.create () in
  let x = S.symbol ctx "x" and y = S.symbol ctx "y" in
  let c k = S.const ctx k in
  let id (e : S.expr) = e.S.id in
  Alcotest.(check int) "constant folding"
    (id (c 12))
    (id (S.alu ctx Instr.Add (c 5) (c 7)));
  Alcotest.(check int) "x + 0 = x" (id x) (id (S.alu ctx Instr.Add x (c 0)));
  Alcotest.(check int) "0 + x = x" (id x) (id (S.alu ctx Instr.Add (c 0) x));
  Alcotest.(check int) "x - x = 0" (id (c 0)) (id (S.alu ctx Instr.Sub x x));
  Alcotest.(check int) "x ^ x = 0" (id (c 0)) (id (S.alu ctx Instr.Xor x x));
  Alcotest.(check int) "x * 1 = x" (id x) (id (S.alu ctx Instr.Mul x (c 1)));
  Alcotest.(check int) "commutative operands order"
    (id (S.alu ctx Instr.Add x y))
    (id (S.alu ctx Instr.Add y x));
  Alcotest.(check int) "congruence: same op, same children"
    (id (S.alu ctx Instr.Sub x y))
    (id (S.alu ctx Instr.Sub x y));
  Alcotest.(check int) "reflexive compare decides"
    (id (c 1))
    (id (S.cmp ctx Instr.Le x x));
  Alcotest.(check int) "ite with equal arms collapses" (id y)
    (id (S.ite ctx x y y));
  Alcotest.(check int) "ite with constant condition" (id y)
    (id (S.ite ctx (c 3) y x))

let test_symexec_memory () =
  let ctx = S.create () in
  let base = S.symbol ctx "base" in
  let addr k = S.alu ctx Instr.Add base (S.const ctx k) in
  let m0 = S.memsym ctx "mem" in
  let v1 = S.symbol ctx "v1" and v2 = S.symbol ctx "v2" in
  Alcotest.(check bool) "disjointness of base+0 / base+8" true
    (S.surely_disjoint ctx (addr 0) (addr 8));
  Alcotest.(check bool) "base+0 / base+4 overlap" false
    (S.surely_disjoint ctx (addr 0) (addr 4));
  let m1 = S.store ctx (S.store ctx m0 (addr 0) v1) (addr 8) v2 in
  let m2 = S.store ctx (S.store ctx m0 (addr 8) v2) (addr 0) v1 in
  Alcotest.(check int) "disjoint stores normalize to one log" m1.S.mid
    m2.S.mid;
  Alcotest.(check int) "select hits the matching store" v2.S.id
    (S.select ctx m1 (addr 8)).S.id;
  Alcotest.(check int) "select looks through a disjoint store"
    (S.select ctx m0 (addr 0)).S.id
    (S.select ctx (S.store ctx m0 (addr 8) v2) (addr 0)).S.id;
  Alcotest.(check int) "same-address store shadows"
    (S.store ctx m0 (addr 0) v2).S.mid
    (S.store ctx (S.store ctx m0 (addr 0) v1) (addr 0) v2).S.mid;
  (* unknown base: may alias, select must stay opaque *)
  let unknown = S.symbol ctx "p" in
  Alcotest.(check bool) "select blocked by may-aliasing store" false
    ((S.select ctx (S.store ctx m0 unknown v1) (addr 0)).S.id
    = (S.select ctx m0 (addr 0)).S.id)

let test_symexec_exec () =
  let ctx = S.create () in
  let init = S.init ctx ~at:"entry" ~side:"s" ~shared:Regset.all in
  let store ~src ~offset = Instr.Store { src = r src; base = r 0; offset } in
  let load ~dst ~offset =
    Instr.Load { dst = r dst; base = r 0; offset; speculative = false }
  in
  (* store-to-load forwarding through the log *)
  let st =
    S.exec_body ctx init
      [ Instr.Mov { dst = r 6; src = Instr.Imm 5 };
        store ~src:6 ~offset:16;
        load ~dst:7 ~offset:16
      ]
  in
  Alcotest.(check int) "forwarded value" st.S.regs.(6).S.id
    st.S.regs.(7).S.id;
  (* a reordered pair of disjoint stores reaches the same memory term *)
  let s1 =
    S.exec_body ctx init [ store ~src:6 ~offset:0; store ~src:7 ~offset:8 ]
  in
  let s2 =
    S.exec_body ctx init [ store ~src:7 ~offset:8; store ~src:6 ~offset:0 ]
  in
  Alcotest.(check int) "store order normalizes" s1.S.mem.S.mid s2.S.mem.S.mid;
  (* cmov is an ite *)
  let cm =
    S.exec_body ctx init
      [ Instr.Cmov { on = true; cond = r 5; dst = r 6; src = Instr.Reg (r 7) } ]
  in
  Alcotest.(check int) "cmov"
    (S.ite ctx init.S.regs.(5) init.S.regs.(7) init.S.regs.(6)).S.id
    cm.S.regs.(6).S.id

(* Entry symbols are keyed by register and side, not by name: the names
   printed are still [r3@L] for a shared register and [o!r3@L] /
   [t!r3@L] for a per-side one. A shared register interns to one term
   for both sides, a per-side register to one term per side, and all 64
   are interned eagerly in register order, so ids match the named
   interning they replaced. *)
let test_symexec_entry_symbols () =
  let ctx = S.create () in
  let shared = Regset.of_list [ r 3; r 31; r 32 ] in
  let o = S.init ctx ~at:"L" ~side:"o" ~shared in
  let t = S.init ctx ~at:"L" ~side:"t" ~shared in
  let name (st : S.state) i = S.to_string st.S.regs.(i) in
  let id (st : S.state) i = st.S.regs.(i).S.id in
  Alcotest.(check string) "shared name" "r3@L" (name o 3);
  Alcotest.(check string) "shared name, other side" "r3@L" (name t 3);
  Alcotest.(check string) "original side" "o!r4@L" (name o 4);
  Alcotest.(check string) "transformed side" "t!r4@L" (name t 4);
  Alcotest.(check string) "last register" "t!r63@L" (name t 63);
  Alcotest.(check string) "memory" "mem@L"
    (Format.asprintf "%a" S.pp_mem t.S.mem);
  Alcotest.(check int) "memory is shared" o.S.mem.S.mid t.S.mem.S.mid;
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "r%d one term" i) (id o i) (id t i))
    [ 3; 31; 32 ];
  Alcotest.(check (list int)) "first side: ids in register order"
    (List.init Reg.count Fun.id)
    (List.init Reg.count (id o));
  (* the second side's private symbols follow, in register order *)
  let private_t =
    List.filter
      (fun i -> not (Regset.mem (r i) shared))
      (List.init Reg.count Fun.id)
  in
  Alcotest.(check (list int)) "second side: fresh ids in register order"
    (List.init (List.length private_t) (fun k -> Reg.count + k))
    (List.map (id t) private_t);
  (* a third init of a known side reuses its symbols *)
  let o' = S.init ctx ~at:"L" ~side:"o" ~shared in
  Alcotest.(check (list int)) "same side, same terms"
    (List.init Reg.count (id o))
    (List.init Reg.count (id o'))

(* ---------------------------------------------------------------- alias *)

let block label body term = Block.make ~label ~body ~term

let test_alias_verdicts () =
  let ld0 = Instr.Load { dst = r 6; base = r 0; offset = 0; speculative = false } in
  let st8 = Instr.Store { src = r 7; base = r 0; offset = 8 } in
  let st0 = Instr.Store { src = r 8; base = r 0; offset = 0 } in
  let ld_p = Instr.Load { dst = r 9; base = r 2; offset = 0; speculative = false } in
  let st_p8 = Instr.Store { src = r 9; base = r 3; offset = 0 } in
  let proc =
    Proc.make ~name:"p"
      [ block "entry"
          [ Instr.Alu { op = Instr.Add; dst = r 3; src1 = r 2; src2 = Instr.Imm 8 };
            ld0; st8; st0; ld_p; st_p8
          ]
          Term.Halt
      ]
  in
  let t = Alias.analyze (Cfg.make proc) in
  Alcotest.(check bool) "r0+0 vs r0+8 disjoint" false (Alias.may_alias t ld0 st8);
  Alcotest.(check bool) "r0+0 vs r0+0 alias" true (Alias.may_alias t ld0 st0);
  Alcotest.(check bool) "r0+8 vs r0+0 disjoint" false (Alias.may_alias t st8 st0);
  Alcotest.(check bool) "r2+0 vs (r2+8)+0 disjoint" false
    (Alias.may_alias t ld_p st_p8);
  (* unrelated entry bases cannot be disproved *)
  Alcotest.(check bool) "different entry bases alias" true
    (Alias.may_alias t st0 st_p8)

let test_alias_call_havoc () =
  let ld = Instr.Load { dst = r 6; base = r 1; offset = 0; speculative = false } in
  let st = Instr.Store { src = r 6; base = r 1; offset = 8 } in
  let proc =
    Proc.make ~name:"p"
      [ block "entry" [] (Term.Call { target = "leaf"; return_to = "after" });
        block "after" [ ld; st ] Term.Halt
      ]
  in
  let t = Alias.analyze (Cfg.make proc) in
  (* r1 was havocked by the call: both ops are Unknown, so may-alias *)
  Alcotest.(check bool) "post-call addresses unknown" true
    (Alias.may_alias t ld st);
  match Alias.address_of t ld with
  | Alias.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown after call havoc"

let test_alias_join () =
  let st = Instr.Store { src = r 6; base = r 2; offset = 0 } in
  let ld = Instr.Load { dst = r 7; base = r 2; offset = 8; speculative = false } in
  let proc =
    Proc.make ~name:"p"
      [ block "entry" []
          (Term.Branch { on = true; src = r 5; taken = "a"; not_taken = "b"; id = 1 });
        block "a"
          [ Instr.Mov { dst = r 2; src = Instr.Imm 0 } ]
          (Term.Jump "join");
        block "b"
          [ Instr.Mov { dst = r 2; src = Instr.Imm 16 } ]
          (Term.Jump "join");
        block "join" [ st; ld ] Term.Halt
      ]
  in
  let t = Alias.analyze (Cfg.make proc) in
  (* r2 is 0 or 16 at the join — Top — so the pair may alias *)
  Alcotest.(check bool) "conflicting defs join to Top" true
    (Alias.may_alias t st ld)

let test_alias_top_meets_anchor () =
  (* One arm leaves r2 anchored to its entry value, the other pins it to
     an absolute constant. The regions share nothing, so the join must
     land on Unknown — keeping either operand would let the offsets
     below "prove" disjointness that doesn't hold. *)
  let st = Instr.Store { src = r 6; base = r 2; offset = 0 } in
  let ld =
    Instr.Load { dst = r 7; base = r 2; offset = 64; speculative = false }
  in
  let proc =
    Proc.make ~name:"p"
      [ block "entry" []
          (Term.Branch
             { on = true; src = r 5; taken = "pin"; not_taken = "keep"; id = 1 });
        block "pin"
          [ Instr.Mov { dst = r 2; src = Instr.Imm 0 } ]
          (Term.Jump "join");
        block "keep" [] (Term.Jump "join");
        block "join" [ st; ld ] Term.Halt
      ]
  in
  let t = Alias.analyze (Cfg.make proc) in
  (match Alias.address_of t st with
  | Alias.Unknown -> ()
  | _ -> Alcotest.fail "anchored-meets-absolute join must be Unknown");
  Alcotest.(check bool) "offsets alone cannot separate the pair" true
    (Alias.may_alias t st ld)

let test_alias_havoc_rejoin () =
  (* A call on one arm havocs the base register; rejoining with the
     untouched anchored arm must stay havocked — the join cannot wash
     out the call's effect. *)
  let st = Instr.Store { src = r 6; base = r 1; offset = 0 } in
  let ld =
    Instr.Load { dst = r 7; base = r 1; offset = 32; speculative = false }
  in
  let proc =
    Proc.make ~name:"p"
      [ block "entry" []
          (Term.Branch
             { on = true; src = r 5; taken = "call"; not_taken = "skip"; id = 1 });
        block "call" [] (Term.Call { target = "leaf"; return_to = "ret" });
        block "ret" [] (Term.Jump "join");
        block "skip" [] (Term.Jump "join");
        block "join" [ st; ld ] Term.Halt
      ]
  in
  let t = Alias.analyze (Cfg.make proc) in
  (match Alias.address_of t ld with
  | Alias.Unknown -> ()
  | _ -> Alcotest.fail "call havoc must survive the rejoin");
  Alcotest.(check bool) "havocked base may alias" true
    (Alias.may_alias t st ld)

(* ------------------------------------------------- alias-aware scheduling *)

let positions body =
  List.mapi (fun i instr -> (instr, i)) body

let pos_of body instr = List.assq instr (positions body)

let test_alias_sched () =
  let st = Instr.Store { src = r 7; base = r 0; offset = 0 } in
  let ld = Instr.Load { dst = r 6; base = r 0; offset = 8; speculative = false } in
  let use = Instr.Alu { op = Instr.Add; dst = r 8; src1 = r 6; src2 = Instr.Imm 1 } in
  let body = [ st; ld; use ] in
  let proc = Proc.make ~name:"p" [ block "entry" body Term.Halt ] in
  let t = Alias.analyze (Cfg.make proc) in
  let default = Bv_sched.Sched.schedule_body ~term:Term.Halt body in
  Alcotest.(check bool) "store barrier holds by default" true
    (pos_of default st < pos_of default ld);
  let relaxed =
    Bv_sched.Sched.schedule_body ~may_alias:(Alias.may_alias t) ~term:Term.Halt
      body
  in
  Alcotest.(check bool) "disjoint load hoists past the store" true
    (pos_of relaxed ld < pos_of relaxed st);
  (* an aliasing pair must keep its order even with the oracle *)
  let st0 = Instr.Store { src = r 7; base = r 0; offset = 8 } in
  let body2 = [ st0; ld; use ] in
  let proc2 = Proc.make ~name:"p" [ block "entry" body2 Term.Halt ] in
  let t2 = Alias.analyze (Cfg.make proc2) in
  let relaxed2 =
    Bv_sched.Sched.schedule_body ~may_alias:(Alias.may_alias t2)
      ~term:Term.Halt body2
  in
  Alcotest.(check bool) "aliasing store/load keeps order" true
    (pos_of relaxed2 st0 < pos_of relaxed2 ld)

(* ------------------------------------------------------------ equivalence *)

let shape_valid_candidates prog =
  let image = Layout.program (Program.copy prog) in
  let profile =
    Bv_profile.Profile.collect
      ~predictor:(Bv_bpred.Kind.create Bv_bpred.Kind.Always_not_taken)
      image
  in
  (Vanguard.Select.select ~threshold:(-2.0) ~min_executed:0 ~profile prog)
    .Vanguard.Select.candidates

let seeds = QCheck2.Gen.int_range 0 100_000

let prop_transform_proves =
  QCheck2.Test.make ~name:"transformed fuzz programs prove equivalent"
    ~count:60 seeds
    (fun seed ->
      let prog = gen_program seed in
      let candidates = shape_valid_candidates prog in
      (* ~prove raises on any counterexample *)
      let result = Vanguard.Transform.apply ~prove:true ~candidates prog in
      let diags =
        Equiv.verify ~scratch ~original:prog result.Vanguard.Transform.program
      in
      errors diags = []
      && List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Info) diags)

let prop_transform_self_checks =
  QCheck2.Test.make
    ~name:"transformed fuzz programs pass the self-consistency check"
    ~count:30 seeds
    (fun seed ->
      let prog = gen_program seed in
      let candidates = shape_valid_candidates prog in
      let result = Vanguard.Transform.apply ~candidates prog in
      errors (Equiv.verify_self ~scratch result.Vanguard.Transform.program)
      = [])

let prop_assertconv_proves =
  QCheck2.Test.make ~name:"assert-converted fuzz programs prove equivalent"
    ~count:30 seeds
    (fun seed ->
      let prog = gen_program seed in
      let candidates =
        List.mapi (fun i c -> (c, i mod 2 = 0)) (shape_valid_candidates prog)
      in
      let result = Vanguard.Assertconv.apply ~prove:true ~candidates prog in
      errors
        (Equiv.verify ~scratch ~original:prog
           result.Vanguard.Assertconv.program)
      = [])

let prop_alias_sched_preserves =
  QCheck2.Test.make
    ~name:"alias-aware program scheduling preserves semantics" ~count:60
    seeds
    (fun seed ->
      let prog = gen_program seed in
      let digest p =
        Bv_exec.Interp.arch_digest (Bv_exec.Interp.run (Layout.program p))
      in
      let want = digest (Program.copy prog) in
      Bv_sched.Sched.schedule_program
        ~alias:Vanguard.Transform.alias_oracle prog;
      digest prog = want)

(* A deterministic rejection case: swapping the resolve arms of a
   transformed program must produce counterexamples. *)
let find_transformed_seed () =
  let rec go seed =
    if seed > 200 then Alcotest.fail "no transformable fuzz seed found"
    else
      let prog = gen_program seed in
      let candidates = shape_valid_candidates prog in
      let result = Vanguard.Transform.apply ~candidates prog in
      if result.Vanguard.Transform.reports <> [] then
        (prog, result.Vanguard.Transform.program)
      else go (seed + 1)
  in
  go 0

let test_equiv_rejects_swapped_arms () =
  let original, transformed = find_transformed_seed () in
  let mutant = Program.copy transformed in
  let swapped = ref false in
  List.iter
    (fun proc ->
      List.iter
        (fun b ->
          match b.Block.term with
          | Term.Resolve t when not !swapped ->
            swapped := true;
            b.Block.term <-
              Term.Resolve
                { t with
                  mispredict = t.fallthrough;
                  fallthrough = t.mispredict
                }
          | _ -> ())
        proc.Proc.blocks)
    mutant.Program.procs;
  Alcotest.(check bool) "found a resolve to swap" true !swapped;
  Alcotest.(check bool) "swapped arms are refuted" true
    (errors (Equiv.verify ~scratch ~original mutant) <> [])

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let test_equiv_budget_overflow_message () =
  (* A branch tree with no reconvergence is one region with 2^depth
     paths; a budget of 4 trips on the fifth. The diagnostic must be
     actionable: budget, region, paths-explored count, and the branch
     block where exploration overflowed. *)
  let leaf l = block l [] Term.Halt in
  let br src ~taken ~not_taken id =
    Term.Branch { on = true; src = r src; taken; not_taken; id }
  in
  let prog =
    Program.make ~main:"main"
      [ Proc.make ~name:"main"
          [ block "entry" [] (br 5 ~taken:"a" ~not_taken:"b" 1);
            block "a" [] (br 6 ~taken:"aa" ~not_taken:"ab" 2);
            block "b" [] (br 7 ~taken:"ba" ~not_taken:"bb" 3);
            block "aa" [] (br 8 ~taken:"l0" ~not_taken:"l1" 4);
            block "ab" [] (br 9 ~taken:"l2" ~not_taken:"l3" 5);
            block "ba" [] (br 10 ~taken:"l4" ~not_taken:"l5" 6);
            block "bb" [] (br 11 ~taken:"l6" ~not_taken:"l7" 7);
            leaf "l0"; leaf "l1"; leaf "l2"; leaf "l3";
            leaf "l4"; leaf "l5"; leaf "l6"; leaf "l7"
          ]
      ]
  in
  match errors (Equiv.verify_self ~max_paths:4 prog) with
  | [] -> Alcotest.fail "blown budget must be an error, not an accept"
  | d :: _ ->
    let msg = d.Diagnostic.message in
    Alcotest.(check bool) "names the budget" true
      (contains msg "path budget (4) exceeded");
    Alcotest.(check bool) "names the paths-explored count" true
      (contains msg "paths explored");
    Alcotest.(check bool) "names the overflowing branch block" true
      (contains msg "overflow at branch ")

(* ------------------------------------------------------- mutation killing *)

(* Seeded semantic mutations of transformed programs. Each mutator edits a
   deep copy in place and reports whether it found a victim site. *)

let each_block p f =
  let hit = ref false in
  List.iter
    (fun proc ->
      List.iter (fun b -> if not !hit then hit := f b) proc.Proc.blocks)
    p.Program.procs;
  !hit

let rewrite_first_instr p ~pick ~rewrite =
  each_block p (fun b ->
      let rec go acc = function
        | [] -> false
        | i :: rest ->
          if pick i then begin
            b.Block.body <- List.rev_append acc (rewrite i :: rest);
            true
          end
          else go (i :: acc) rest
      in
      go [] b.Block.body)

let mutators : (string * (Program.t -> bool)) list =
  [ ( "swap-resolve-arms",
      fun p ->
        each_block p (fun b ->
            match b.Block.term with
            | Term.Resolve t ->
              b.Block.term <-
                Term.Resolve
                  { t with
                    mispredict = t.fallthrough;
                    fallthrough = t.mispredict
                  };
              true
            | _ -> false) );
    ( "flip-predicted-taken",
      fun p ->
        each_block p (fun b ->
            match b.Block.term with
            | Term.Resolve t ->
              b.Block.term <-
                Term.Resolve { t with predicted_taken = not t.predicted_taken };
              true
            | _ -> false) );
    ( "flip-resolve-polarity",
      fun p ->
        each_block p (fun b ->
            match b.Block.term with
            | Term.Resolve t ->
              b.Block.term <- Term.Resolve { t with on = not t.on };
              true
            | _ -> false) );
    ( "drop-commit-move",
      fun p ->
        each_block p (fun b ->
            if contains b.Block.label "@commit" && b.Block.body <> [] then begin
              b.Block.body <- List.tl b.Block.body;
              true
            end
            else false) );
    ( "drop-resolution-instr",
      fun p ->
        each_block p (fun b ->
            if
              (contains b.Block.label "@rnt." || contains b.Block.label "@rt.")
              && b.Block.body <> []
            then begin
              b.Block.body <- List.tl b.Block.body;
              true
            end
            else false) );
    ( "swap-branch-targets",
      fun p ->
        each_block p (fun b ->
            match b.Block.term with
            | Term.Branch t ->
              b.Block.term <-
                Term.Branch { t with taken = t.not_taken; not_taken = t.taken };
              true
            | _ -> false) );
    ( "bump-store-offset",
      fun p ->
        rewrite_first_instr p
          ~pick:(function Instr.Store _ -> true | _ -> false)
          ~rewrite:(function
            | Instr.Store s ->
              Instr.Store { s with offset = (s.offset + 8) mod 512 }
            | i -> i) );
    ( "bump-load-offset",
      fun p ->
        rewrite_first_instr p
          ~pick:(function Instr.Load _ -> true | _ -> false)
          ~rewrite:(function
            | Instr.Load l ->
              Instr.Load { l with offset = (l.offset + 8) mod 512 }
            | i -> i) );
    ( "flip-cmp",
      fun p ->
        rewrite_first_instr p
          ~pick:(function Instr.Cmp _ -> true | _ -> false)
          ~rewrite:(function
            | Instr.Cmp c ->
              let op =
                match c.op with
                | Instr.Eq -> Instr.Ne
                | Instr.Ne -> Instr.Eq
                | Instr.Lt -> Instr.Ge
                | Instr.Ge -> Instr.Lt
                | Instr.Le -> Instr.Gt
                | Instr.Gt -> Instr.Le
              in
              Instr.Cmp { c with op }
            | i -> i) );
    ( "bump-mov-imm",
      fun p ->
        rewrite_first_instr p
          ~pick:(function
            | Instr.Mov { src = Instr.Imm _; _ } -> true
            | _ -> false)
          ~rewrite:(function
            | Instr.Mov { dst; src = Instr.Imm k } ->
              Instr.Mov { dst; src = Instr.Imm (k + 1) }
            | i -> i) );
    ( "flip-cmov",
      fun p ->
        rewrite_first_instr p
          ~pick:(function Instr.Cmov _ -> true | _ -> false)
          ~rewrite:(function
            | Instr.Cmov c -> Instr.Cmov { c with on = not c.on }
            | i -> i) )
  ]

let scratch_indices = List.map Reg.index scratch

let observable program policy =
  match
    Bv_exec.Interp.run ~predict_policy:policy ~max_instrs:5_000_000
      (Layout.program (Program.copy program))
  with
  | exception Bv_exec.Interp.Fault msg -> Error ("fault: " ^ msg)
  | st ->
    if not st.Bv_exec.Interp.halted then Error "did not halt"
    else
      Ok
        ( Array.to_list st.Bv_exec.Interp.mem,
          st.Bv_exec.Interp.store_count,
          List.filteri
            (fun i _ -> not (List.mem i scratch_indices))
            (Array.to_list st.Bv_exec.Interp.regs) )

(* Policy builders: the alternating one is stateful, so each run gets a
   fresh instance (otherwise the two runs being compared would see
   different prediction sequences). *)
let policies =
  [ (fun () ~pc:_ ~id:_ -> false);
    (fun () ~pc:_ ~id:_ -> true);
    (fun () ->
      let flip = ref false in
      fun ~pc:_ ~id:_ ->
        flip := not !flip;
        !flip)
  ]

let semantically_different original mutant =
  List.exists
    (fun policy -> observable original (policy ()) <> observable mutant (policy ()))
    policies

let test_mutation_kill () =
  let seeds = List.init 25 (fun i -> 31 * i) in
  let total = ref 0 and killed = ref 0 and escaped = ref [] in
  List.iter
    (fun seed ->
      let prog = gen_program seed in
      let candidates = shape_valid_candidates prog in
      let result = Vanguard.Transform.apply ~candidates prog in
      let transformed = result.Vanguard.Transform.program in
      if result.Vanguard.Transform.reports <> [] then
        List.iter
          (fun (name, mutate) ->
            let mutant = Program.copy transformed in
            if mutate mutant then
              match Validate.check_exn mutant with
              | exception _ -> () (* malformed, not Equiv's concern *)
              | () ->
                if semantically_different prog mutant then begin
                  incr total;
                  if errors (Equiv.verify ~scratch ~original:prog mutant) <> []
                  then incr killed
                  else escaped := Printf.sprintf "%s (seed %d)" name seed :: !escaped
                end)
          mutators)
    seeds;
  Printf.printf "mutation-kill: %d/%d semantic mutants refuted\n%!" !killed
    !total;
  Alcotest.(check bool)
    (Printf.sprintf "enough semantic mutants to be meaningful (%d)" !total)
    true (!total >= 30);
  let rate = float_of_int !killed /. float_of_int (max 1 !total) in
  if rate < 0.9 then
    Alcotest.failf "kill rate %.2f below 0.9; escapes: %s" rate
      (String.concat ", " !escaped)

(* The full text of two counterexamples on one fuzz seed, pinned byte
   for byte: they print register terms, shared ([r18@x4]) and per-side
   ([t!r49@x4]) entry symbols, memory logs and [t<id>] path literals, so
   a change to how terms are interned or named shows here. Regenerate
   with [BV_GOLDEN_DIR=test/goldens dune exec test/test_equiv.exe]. *)
let test_counterexample_golden () =
  let seed = 31 in
  let prog = gen_program seed in
  let candidates = shape_valid_candidates prog in
  let transformed =
    (Vanguard.Transform.apply ~candidates prog).Vanguard.Transform.program
  in
  let mutant name =
    let m = Program.copy transformed in
    Alcotest.(check bool) (name ^ " applies") true
      ((List.assoc name mutators) m);
    ( name,
      Bv_obs.Json.List
        (List.map
           (fun d -> Bv_obs.Json.String (Format.asprintf "%a" Diagnostic.pp d))
           (Equiv.verify ~scratch ~original:prog m)) )
  in
  let got =
    Bv_obs.Json.to_string ~indent:true
      (Bv_obs.Json.Obj
         [ ("seed", Bv_obs.Json.Int seed);
           ( "mutants",
             Bv_obs.Json.Obj
               [ mutant "swap-resolve-arms"; mutant "drop-resolution-instr" ]
           )
         ])
    ^ "\n"
  in
  Golden.check ~file:"toolchain_counterexample.json"
    ~what:"counterexample text" got

(* ------------------------------------------------------------------ main *)

let () =
  Alcotest.run "bv_equiv"
    [ ( "symexec",
        [ Alcotest.test_case "normalization" `Quick test_symexec_normalization;
          Alcotest.test_case "memory terms" `Quick test_symexec_memory;
          Alcotest.test_case "execution" `Quick test_symexec_exec;
          Alcotest.test_case "entry symbols" `Quick test_symexec_entry_symbols
        ] );
      ( "alias",
        [ Alcotest.test_case "verdicts" `Quick test_alias_verdicts;
          Alcotest.test_case "call havoc" `Quick test_alias_call_havoc;
          Alcotest.test_case "join to top" `Quick test_alias_join;
          Alcotest.test_case "top meets anchored interval" `Quick
            test_alias_top_meets_anchor;
          Alcotest.test_case "call havoc survives a rejoin" `Quick
            test_alias_havoc_rejoin;
          Alcotest.test_case "alias-aware scheduling" `Quick test_alias_sched
        ] );
      ( "equiv",
        [ Alcotest.test_case "rejects swapped resolve arms" `Quick
            test_equiv_rejects_swapped_arms;
          Alcotest.test_case "budget overflow names the branch" `Quick
            test_equiv_budget_overflow_message;
          Alcotest.test_case "mutation kill" `Slow test_mutation_kill;
          Alcotest.test_case "counterexample golden" `Quick
            test_counterexample_golden
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_transform_proves;
              prop_transform_self_checks;
              prop_assertconv_proves;
              prop_alias_sched_preserves
            ] )
    ]
