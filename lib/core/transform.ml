open Bv_isa
open Bv_ir
module Hammock = Bv_analysis.Hammock

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

let default_temp_pool = Hammock.scratch

let phi r =
  let total = r.not_taken_block_size + r.taken_block_size in
  if total = 0 then 0.0
  else
    100.0
    *. Float.of_int (r.hoisted_not_taken + r.hoisted_taken)
    /. Float.of_int total

type site =
  { proc : Proc.t;
    block : Block.t;
    on : bool;
    src : Reg.t;
    taken : Label.t;
    not_taken : Label.t;
    id : int;
    slice : Instr.t list;
    rest : Instr.t list;
    live : Liveness.t;
    max_hoist : int
  }

exception Skip of string

(* Set-up on the current, possibly already part-rewritten, procedure: the
   condition slice, its safety check (in summary mode against the alias
   oracle with call havoc narrowed by the summaries) and the liveness
   the renaming reads. *)
let site_of ~max_hoist ~exit_live ?summaries program (c : Select.candidate) =
  let proc = Program.find_proc program c.Select.proc in
  let block = Proc.find_block proc c.Select.block in
  match block.Block.term with
  | Term.Branch { on; src; taken; not_taken; id } ->
    let slice, rest = Hammock.condition_slice ~src block.Block.body in
    let cfg = Cfg.make proc in
    let may_alias =
      Option.map
        (fun env ->
          Bv_analysis.Alias.may_alias
            (Bv_analysis.Alias.analyze
               ~call_mod:(Bv_analysis.Summary.call_mod env)
               cfg))
        summaries
    in
    Option.iter
      (fun reason -> raise (Skip reason))
      (Hammock.slice_hazard ?may_alias ~slice ~rest block.Block.body);
    { proc;
      block;
      on;
      src;
      taken;
      not_taken;
      id;
      slice;
      rest;
      live = Liveness.compute ?exit_live cfg;
      max_hoist
    }
  | _ -> raise (Skip "terminator is not a conditional branch")

let hoist site ~alternate body =
  let p =
    Hammock.hoistable_prefix ~max_hoist:site.max_hoist
      ~must_rename:(Hammock.must_rename site.live ~src:site.src ~alternate)
      body
  in
  let src k r = Hammock.holder p k r in
  let dst k r = Hammock.holder p (k + 1) r in
  let operand k = function
    | Instr.Reg r -> Instr.Reg (src k r)
    | Instr.Imm _ as o -> o
  in
  let rec go k orig spec = function
    | instr :: rest when k < p.Hammock.length ->
      let spec =
        match instr with
        | Instr.Alu a ->
          let src1 = src k a.src1 and src2 = operand k a.src2 in
          Instr.Alu { a with dst = dst k a.dst; src1; src2 } :: spec
        | Instr.Fpu a ->
          let src1 = src k a.src1 and src2 = operand k a.src2 in
          Instr.Fpu { a with dst = dst k a.dst; src1; src2 } :: spec
        | Instr.Cmp c ->
          let src1 = src k c.src1 and src2 = operand k c.src2 in
          Instr.Cmp { c with dst = dst k c.dst; src1; src2 } :: spec
        | Instr.Mov m ->
          Instr.Mov { dst = dst k m.dst; src = operand k m.src } :: spec
        | Instr.Load l ->
          let base = src k l.base in
          Instr.Load { l with dst = dst k l.dst; base; speculative = true }
          :: spec
        | Instr.Cmov c ->
          let cond = src k c.cond and src' = operand k c.src in
          let t = dst k c.dst in
          let cmov = Instr.Cmov { c with cond; dst = t; src = src' } in
          if
            List.exists
              (fun rn -> rn.Hammock.at = k && rn.Hammock.seeded)
              p.Hammock.renames
          then
            (* the fresh scratch register starts from the running value *)
            cmov :: Instr.Mov { dst = t; src = Instr.Reg c.dst } :: spec
          else cmov :: spec
        | Instr.Nop -> instr :: spec
        | Instr.Store _ | Instr.Branch _ | Instr.Jump _ | Instr.Call _
        | Instr.Ret | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
          (* the walk stops at these *)
          assert false
      in
      go (k + 1) (instr :: orig) spec rest
    | rest -> (List.rev orig, List.rev spec, rest)
  in
  let orig, spec, rest = go 0 [] [] body in
  let commits =
    List.map
      (fun { Hammock.reg; temp; _ } ->
        Instr.Mov { dst = reg; src = Instr.Reg temp })
      p.Hammock.renames
  in
  (orig, spec, commits, rest)

let decompose site (_ : Select.candidate) =
  let proc = site.proc and a = site.block and id = site.id in
  let b_label = site.not_taken and c_label = site.taken in
  let b = Proc.find_block proc b_label in
  let c = Proc.find_block proc c_label in
  let b_size = List.length b.Block.body in
  let c_size = List.length c.Block.body in
  let b_orig, b_spec, b_commits, b_rest =
    hoist site ~alternate:c_label b.Block.body
  in
  let c_orig, c_spec, c_commits, c_rest =
    hoist site ~alternate:b_label c.Block.body
  in
  let l suffix = Printf.sprintf "%s@%s.%d" a.Block.label suffix id in
  let rnt = l "rnt" and rt = l "rt" in
  let bcommit = l "commitB" and ccommit = l "commitC" in
  let fixb = l "fixB" and fixc = l "fixC" in
  let resolve ~spec ~mispredict ~fallthrough ~predicted_taken label =
    Block.make ~label
      ~body:(site.slice @ spec)
      ~term:
        (Term.Resolve
           { on = site.on; src = site.src; mispredict; fallthrough;
             predicted_taken; id })
  in
  (* Predicted-not-taken resolution block: slice + B's speculative
     prefix; mispredict goes to Correct-C. *)
  let a_rnt =
    resolve ~spec:b_spec ~mispredict:fixc ~fallthrough:bcommit
      ~predicted_taken:false rnt
  in
  let a_rt =
    resolve ~spec:c_spec ~mispredict:fixb ~fallthrough:ccommit
      ~predicted_taken:true rt
  in
  let b_commit =
    Block.make ~label:bcommit ~body:b_commits ~term:(Term.Jump b_label)
  in
  let c_commit =
    Block.make ~label:ccommit ~body:c_commits ~term:(Term.Jump c_label)
  in
  let fix_b = Block.make ~label:fixb ~body:b_orig ~term:(Term.Jump b_label) in
  let fix_c = Block.make ~label:fixc ~body:c_orig ~term:(Term.Jump c_label) in
  (* Rewrite in place. *)
  a.Block.body <- site.rest;
  a.Block.term <- Term.Predict { taken = rt; not_taken = rnt; id };
  b.Block.body <- b_rest;
  c.Block.body <- c_rest;
  Proc.insert_after proc a.Block.label [ a_rnt; b_commit ];
  Proc.insert_before proc c_label [ a_rt; c_commit ];
  Proc.append_blocks proc [ fix_b; fix_c ];
  { site = id;
    proc = proc.Proc.name;
    slice_size = List.length site.slice;
    slice_instrs = site.slice;
    hoisted_not_taken = List.length b_spec;
    hoisted_taken = List.length c_spec;
    not_taken_block_size = b_size;
    taken_block_size = c_size
  }

(* Per-procedure alias oracle for the post-transform scheduling pass:
   provably-disjoint load/store pairs are left unordered. With summaries,
   register intervals survive calls (mod-set havoc only), so accesses in
   call-shadowed blocks disambiguate too. *)
let alias_oracle ?summaries proc =
  let call_mod = Option.map Bv_analysis.Summary.call_mod summaries in
  Bv_analysis.Alias.may_alias
    (Bv_analysis.Alias.analyze ?call_mod (Cfg.make proc))

let rewrite ~caller ?(max_hoist = 16) ?(schedule = true) ?(prove = false)
    ?exit_live ?summaries ~candidate convert candidates program =
  Hammock.check_scratch_unused ~caller program;
  let original = program in
  let program = Program.copy program in
  let exit_live_set = Option.map Liveness.Regset.of_list exit_live in
  let reports = ref [] in
  let skipped = ref [] in
  List.iter
    (fun cand ->
      let c = candidate cand in
      match
        site_of ~max_hoist ~exit_live:exit_live_set ?summaries program c
      with
      | site -> reports := convert site cand :: !reports
      | exception Skip reason ->
        skipped := (c.Select.site, reason) :: !skipped)
    candidates;
  (* Scheduling and verification see summaries of the program as it now
     stands — a rewritten callee writes the scratch pool, which the
     input program's summaries cannot know. *)
  let post_summaries =
    Option.map (fun _ -> Bv_analysis.Summary.compute program) summaries
  in
  if schedule then
    Bv_sched.Sched.schedule_program
      ~alias:(alias_oracle ?summaries:post_summaries)
      program;
  Validate.check_exn program;
  Bv_analysis.Speculation.check_exn ~scratch:Hammock.scratch
    ?summaries:post_summaries program;
  if prove then
    Bv_analysis.Equiv.check_exn ~scratch:Hammock.scratch ?exit_live ~original
      program;
  (program, List.rev !reports, List.rev !skipped)

let apply ?max_hoist ?schedule ?prove ?exit_live ?summaries ~candidates program
    =
  let transformed, reports, skipped =
    rewrite ~caller:"Transform.apply" ?max_hoist ?schedule ?prove ?exit_live
      ?summaries ~candidate:Fun.id decompose candidates program
  in
  { program = transformed;
    reports;
    skipped;
    static_instrs_before = Program.instr_count program;
    static_instrs_after = Program.instr_count transformed
  }
