open Bv_isa
open Bv_ir

type site_report =
  { site : int;
    proc : Label.t;
    slice_size : int;
    slice_instrs : Instr.t list;
    hoisted_not_taken : int;
    hoisted_taken : int;
    not_taken_block_size : int;
    taken_block_size : int
  }

type result =
  { program : Program.t;
    reports : site_report list;
    skipped : (int * string) list;
    static_instrs_before : int;
    static_instrs_after : int
  }

let default_temp_pool = List.init 16 (fun i -> Reg.make (48 + i))

let phi r =
  let total = r.not_taken_block_size + r.taken_block_size in
  if total = 0 then 0.0
  else
    100.0
    *. Float.of_int (r.hoisted_not_taken + r.hoisted_taken)
    /. Float.of_int total

exception Skip of string

(* Backward closure of [src] through the block body: the instructions that
   the condition value depends on within this block. Returns the slice (in
   original order) and the remainder. *)
let condition_slice body ~src =
  let rev = List.rev body in
  let _, slice_rev, rest_rev =
    List.fold_left
      (fun (need, slice, rest) instr ->
        let defs = Regset.of_list (Instr.defs instr) in
        if not (Regset.is_empty (Regset.inter defs need)) then
          let need = Regset.union (Regset.diff need defs)
                       (Regset.of_list (Instr.uses instr)) in
          (need, instr :: slice, rest)
        else (need, slice, instr :: rest))
      (Regset.singleton src, [], [])
      rev
  in
  (slice_rev, rest_rev)

(* Safety checks for sinking the slice below the predict point. All are
   conservative (position-insensitive): a violating site is skipped rather
   than analysed more precisely. [may_alias] — supplied only in summary
   mode, from the same interprocedural alias oracle the scheduler uses —
   relaxes the store-after-slice-load rule to stores that may actually
   overlap a preceding slice load; sinking the slice reorders each slice
   load past the stores behind it, which is observable only for
   overlapping accesses. {!Bv_analysis.Costmodel.check_slice} mirrors
   these rules (and reason strings) verbatim. *)
let check_slice_safety ?may_alias ~slice ~rest body =
  let regs_of f =
    List.fold_left
      (fun s i -> Regset.union s (Regset.of_list (f i)))
      Regset.empty
  in
  let slice_defs = regs_of Instr.defs slice in
  let slice_uses = regs_of Instr.uses slice in
  List.iter
    (fun i ->
      (* RAW: the remainder must not consume slice results (they move below
         the predict). *)
      if List.exists (fun r -> Regset.mem r slice_defs) (Instr.uses i) then
        raise
          (Skip
             (Printf.sprintf "non-slice instruction uses slice result: %s"
                (Instr.to_string i)));
      (* WAR/WAW: the remainder must not redefine anything the slice reads
         or writes (the slice now executes after the whole remainder). *)
      if
        List.exists
          (fun r -> Regset.mem r slice_uses || Regset.mem r slice_defs)
          (Instr.defs i)
      then
        raise
          (Skip
             (Printf.sprintf "non-slice instruction redefines slice register: %s"
                (Instr.to_string i))))
    rest;
  (* No store may appear after a slice load in the original order: the load
     is about to move below every remaining instruction of the block. *)
  let slice_loads = ref [] in
  List.iter
    (fun i ->
      match i with
      | Instr.Load _ when List.memq i slice -> slice_loads := i :: !slice_loads
      | Instr.Store _ when !slice_loads <> [] ->
        let conflicts =
          match may_alias with
          | None -> true
          | Some f -> List.exists (fun l -> f i l) !slice_loads
        in
        if conflicts then raise (Skip "store after a slice load")
      | _ -> ())
    body

(* Split the leading store-free prefix of a successor body, bounded by
   [max_hoist] and by the number of scratch temporaries. Only destinations
   for which [must_rename] holds (live-in on the alternate path, or feeding
   the resolve) are renamed to temporaries — dead registers are clobbered
   for free, which is what keeps the commit-move overhead small (paper §3).
   Returns (original prefix, renamed speculative prefix, commit moves,
   rest). *)
let hoistable_prefix ~max_hoist ~temp_pool ~must_rename body =
  let rename = Hashtbl.create 8 in
  (* orig reg index -> temp *)
  let order = ref [] in
  let temps = ref temp_pool in
  let subst_operand = function
    | Instr.Reg r as o ->
      (match Hashtbl.find_opt rename (Reg.index r) with
      | Some t -> Instr.Reg t
      | None -> o)
    | Instr.Imm _ as o -> o
  in
  let subst_reg r =
    match Hashtbl.find_opt rename (Reg.index r) with Some t -> t | None -> r
  in
  let fresh_for r =
    match Hashtbl.find_opt rename (Reg.index r) with
    | Some t -> Some t
    | None ->
      if not (must_rename r) then Some r
      else (
        match !temps with
        | [] -> None
        | t :: rest ->
          temps := rest;
          Hashtbl.replace rename (Reg.index r) t;
          order := (r, t) :: !order;
          Some t)
  in
  let rec go taken orig spec = function
    | instr :: rest when taken < max_hoist -> (
      let continue dst mk =
        match fresh_for dst with
        | None -> (List.rev orig, List.rev spec, instr :: rest)
        | Some t -> go (taken + 1) (instr :: orig) (mk t :: spec) rest
      in
      match instr with
      | Instr.Store _ -> (List.rev orig, List.rev spec, instr :: rest)
      | Instr.Alu a ->
        let src1 = subst_reg a.src1 and src2 = subst_operand a.src2 in
        continue a.dst (fun t -> Instr.Alu { a with dst = t; src1; src2 })
      | Instr.Fpu a ->
        let src1 = subst_reg a.src1 and src2 = subst_operand a.src2 in
        continue a.dst (fun t -> Instr.Fpu { a with dst = t; src1; src2 })
      | Instr.Cmp c ->
        let src1 = subst_reg c.src1 and src2 = subst_operand c.src2 in
        continue c.dst (fun t -> Instr.Cmp { c with dst = t; src1; src2 })
      | Instr.Mov m ->
        let src = subst_operand m.src in
        continue m.dst (fun t -> Instr.Mov { dst = t; src })
      | Instr.Cmov c ->
        let cond = subst_reg c.cond and src = subst_operand c.src in
        (* dst is also a source of a conditional move *)
        let prior = subst_reg c.dst in
        if Reg.equal prior c.dst then (
          match fresh_for c.dst with
          | None -> (List.rev orig, List.rev spec, instr :: rest)
          | Some t when Reg.equal t c.dst ->
            (* not renamed: a dead dst can take the partial write in place *)
            go (taken + 1) (instr :: orig)
              (Instr.Cmov { c with cond; src } :: spec)
              rest
          | Some t ->
            (* A fresh temp must first be seeded with the running value:
               a not-taken cmov keeps its dst, and the commit move would
               otherwise publish the uninitialised temp. *)
            go (taken + 1) (instr :: orig)
              (Instr.Cmov { c with cond; dst = t; src }
               :: Instr.Mov { dst = t; src = Instr.Reg c.dst }
               :: spec)
              rest)
        else
          (* the running value already lives in a temp: keep writing it *)
          go (taken + 1) (instr :: orig)
            (Instr.Cmov { c with cond; dst = prior; src } :: spec)
            rest
      | Instr.Load l ->
        let base = subst_reg l.base in
        continue l.dst (fun t ->
            Instr.Load { l with dst = t; base; speculative = true })
      | Instr.Nop -> go taken (instr :: orig) (instr :: spec) rest
      | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
      | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
        (* bodies contain no terminators; defensive *)
        (List.rev orig, List.rev spec, instr :: rest))
    | rest -> (List.rev orig, List.rev spec, rest)
  in
  let orig, spec, rest = go 0 [] [] body in
  let commits =
    List.rev_map (fun (r, t) -> Instr.Mov { dst = r; src = Instr.Reg t }) !order
  in
  (orig, spec, commits, rest)

let temp_pool_clash program pool =
  let pool_set = Regset.of_list pool in
  List.exists
    (fun p ->
      List.exists
        (fun b ->
          List.exists
            (fun i ->
              List.exists
                (fun r -> Regset.mem r pool_set)
                (Instr.defs i @ Instr.uses i))
            b.Block.body
          ||
          match b.Block.term with
          | Term.Branch { src; _ } | Term.Resolve { src; _ } ->
            Regset.mem src pool_set
          | _ -> false)
        p.Proc.blocks)
    program.Program.procs

let split_condition_slice ?may_alias ~src body =
  let slice, rest = condition_slice body ~src in
  match check_slice_safety ?may_alias ~slice ~rest body with
  | () -> Ok (slice, rest)
  | exception Skip reason -> Error reason

let split_hoistable_prefix ~max_hoist ~temp_pool ~must_rename body =
  hoistable_prefix ~max_hoist ~temp_pool ~must_rename body

let transform_site ~max_hoist ~temp_pool ~exit_live ?summaries program
    candidate =
  let proc = Program.find_proc program candidate.Select.proc in
  let a = Proc.find_block proc candidate.Select.block in
  match a.Block.term with
  | Term.Branch { on; src; taken = c_label; not_taken = b_label; id } ->
    let b = Proc.find_block proc b_label in
    let c = Proc.find_block proc c_label in
    let slice, rest_a = condition_slice a.Block.body ~src in
    let cfg = Cfg.make proc in
    let may_alias =
      (* on the current (possibly already part-transformed) procedure,
         with call havoc narrowed by the interprocedural summaries *)
      Option.map
        (fun env ->
          Bv_analysis.Alias.may_alias
            (Bv_analysis.Alias.analyze
               ~call_mod:(Bv_analysis.Summary.call_mod env)
               cfg))
        summaries
    in
    check_slice_safety ?may_alias ~slice ~rest:rest_a a.Block.body;
    let b_size = List.length b.Block.body in
    let c_size = List.length c.Block.body in
    let live = Liveness.compute ?exit_live cfg in
    let must_rename ~alternate r =
      Liveness.Regset.mem r (Liveness.live_in live alternate)
      || Reg.equal r src
    in
    let b_orig, b_spec, b_commits, b_rest =
      hoistable_prefix ~max_hoist ~temp_pool
        ~must_rename:(must_rename ~alternate:c_label)
        b.Block.body
    in
    let c_orig, c_spec, c_commits, c_rest =
      hoistable_prefix ~max_hoist ~temp_pool
        ~must_rename:(must_rename ~alternate:b_label)
        c.Block.body
    in
    let l suffix = Printf.sprintf "%s@%s.%d" a.Block.label suffix id in
    let rnt = l "rnt" and rt = l "rt" in
    let bcommit = l "commitB" and ccommit = l "commitC" in
    let fixb = l "fixB" and fixc = l "fixC" in
    (* Predicted-not-taken resolution block: slice + B's speculative
       prefix; mispredict goes to Correct-C. *)
    let a_rnt =
      Block.make ~label:rnt
        ~body:(slice @ b_spec)
        ~term:
          (Term.Resolve
             { on;
               src;
               mispredict = fixc;
               fallthrough = bcommit;
               predicted_taken = false;
               id
             })
    in
    let a_rt =
      Block.make ~label:rt
        ~body:(slice @ c_spec)
        ~term:
          (Term.Resolve
             { on;
               src;
               mispredict = fixb;
               fallthrough = ccommit;
               predicted_taken = true;
               id
             })
    in
    let b_commit =
      Block.make ~label:bcommit ~body:b_commits ~term:(Term.Jump b_label)
    in
    let c_commit =
      Block.make ~label:ccommit ~body:c_commits ~term:(Term.Jump c_label)
    in
    let fix_b =
      Block.make ~label:fixb ~body:b_orig ~term:(Term.Jump b_label)
    in
    let fix_c =
      Block.make ~label:fixc ~body:c_orig ~term:(Term.Jump c_label)
    in
    (* Rewrite in place. *)
    a.Block.body <- rest_a;
    a.Block.term <- Term.Predict { taken = rt; not_taken = rnt; id };
    b.Block.body <- b_rest;
    c.Block.body <- c_rest;
    Proc.insert_after proc a.Block.label [ a_rnt; b_commit ];
    Proc.insert_before proc c_label [ a_rt; c_commit ];
    Proc.append_blocks proc [ fix_b; fix_c ];
    { site = id;
      proc = proc.Proc.name;
      slice_size = List.length slice;
      slice_instrs = slice;
      hoisted_not_taken = List.length b_spec;
      hoisted_taken = List.length c_spec;
      not_taken_block_size = b_size;
      taken_block_size = c_size
    }
  | _ -> raise (Skip "terminator is not a conditional branch")

(* Per-procedure alias oracle for the post-transform scheduling pass:
   provably-disjoint load/store pairs are left unordered. With summaries,
   register intervals survive calls (mod-set havoc only), so accesses in
   call-shadowed blocks disambiguate too. *)
let alias_oracle ?summaries proc =
  let call_mod = Option.map Bv_analysis.Summary.call_mod summaries in
  Bv_analysis.Alias.may_alias
    (Bv_analysis.Alias.analyze ?call_mod (Cfg.make proc))

let apply ?(max_hoist = 16) ?(temp_pool = default_temp_pool) ?(schedule = true)
    ?(verify = true) ?(prove = false) ?exit_live ?select ?summaries ~candidates
    program =
  let original = program in
  let exit_live_set = Option.map Liveness.Regset.of_list exit_live in
  if temp_pool_clash program temp_pool then
    invalid_arg "Transform.apply: program already uses the temporary pool";
  let program = Program.copy program in
  let before = Program.instr_count program in
  let reports = ref [] in
  let skipped = ref [] in
  List.iter
    (fun cand ->
      match select with
      | Some keep when not (keep cand) ->
        skipped := (cand.Select.site, "deselected") :: !skipped
      | _ -> (
        match
          transform_site ~max_hoist ~temp_pool ~exit_live:exit_live_set
            ?summaries program cand
        with
        | report -> reports := report :: !reports
        | exception Skip reason ->
          skipped := (cand.Select.site, reason) :: !skipped))
    candidates;
  (* Scheduling and verification see summaries of the program as it now
     stands — a transformed callee writes the scratch pool, which the
     input program's summaries cannot know. *)
  let post_summaries =
    Option.map (fun _ -> Bv_analysis.Summary.compute program) summaries
  in
  if schedule then
    Bv_sched.Sched.schedule_program
      ~alias:(alias_oracle ?summaries:post_summaries)
      program;
  Validate.check_exn program;
  if verify then
    Bv_analysis.Speculation.check_exn ~scratch:temp_pool
      ?summaries:post_summaries program;
  if prove then
    Bv_analysis.Equiv.check_exn ~scratch:temp_pool ?exit_live ~original
      program;
  { program;
    reports = List.rev !reports;
    skipped = List.rev !skipped;
    static_instrs_before = before;
    static_instrs_after = Program.instr_count program
  }
