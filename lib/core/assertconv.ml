open Bv_isa
open Bv_ir

type site_report =
  { site : int;
    proc : Label.t;
    likely_taken : bool;
    hoisted : int
  }

type result =
  { program : Program.t;
    reports : site_report list;
    skipped : (int * string) list
  }

exception Skip of string

let transform_site ~max_hoist ~temp_pool ~exit_live ?summaries program
    (candidate, likely_taken) =
  let proc = Program.find_proc program candidate.Select.proc in
  let a = Proc.find_block proc candidate.Select.block in
  match a.Block.term with
  | Term.Branch { on; src; taken = c_label; not_taken = b_label; id } ->
    let likely_label = if likely_taken then c_label else b_label in
    let rare_label = if likely_taken then b_label else c_label in
    let likely = Proc.find_block proc likely_label in
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
    let slice, rest_a =
      match Transform.split_condition_slice ?may_alias ~src a.Block.body with
      | Ok parts -> parts
      | Error reason -> raise (Skip reason)
    in
    let live = Liveness.compute ?exit_live cfg in
    let must_rename r =
      Liveness.Regset.mem r (Liveness.live_in live rare_label)
      || Reg.equal r src
    in
    let l_orig, l_spec, l_commits, l_rest =
      Transform.split_hoistable_prefix ~max_hoist ~temp_pool ~must_rename
        likely.Block.body
    in
    ignore l_orig;
    let l name = Printf.sprintf "%s@%s.%d" a.Block.label name id in
    let res_label = l "assert" and commit_label = l "acommit" in
    let res_block =
      Block.make ~label:res_label
        ~body:(slice @ l_spec)
        ~term:
          (Term.Resolve
             { on;
               src;
               mispredict = rare_label;
               fallthrough = commit_label;
               predicted_taken = likely_taken;
               id
             })
    in
    let commit_block =
      Block.make ~label:commit_label ~body:l_commits
        ~term:(Term.Jump likely_label)
    in
    (* straighten the layout: A, assert, commit, then the likely successor *)
    a.Block.body <- rest_a;
    a.Block.term <- Term.Jump res_label;
    likely.Block.body <- l_rest;
    proc.Proc.blocks <-
      List.filter
        (fun blk -> not (Label.equal blk.Block.label likely_label))
        proc.Proc.blocks;
    Proc.insert_after proc a.Block.label [ res_block; commit_block; likely ];
    { site = id;
      proc = proc.Proc.name;
      likely_taken;
      hoisted = List.length l_spec
    }
  | _ -> raise (Skip "terminator is not a conditional branch")

let apply ?(max_hoist = 16) ?(temp_pool = Transform.default_temp_pool)
    ?(schedule = true) ?(verify = true) ?(prove = false) ?exit_live ?summaries
    ~candidates program =
  let original = program in
  let program = Program.copy program in
  let exit_live_set = Option.map Liveness.Regset.of_list exit_live in
  let reports = ref [] in
  let skipped = ref [] in
  List.iter
    (fun cand ->
      match
        transform_site ~max_hoist ~temp_pool ~exit_live:exit_live_set
          ?summaries program cand
      with
      | report -> reports := report :: !reports
      | exception Skip reason ->
        skipped := ((fst cand).Select.site, reason) :: !skipped)
    candidates;
  (* as in Transform.apply: scheduling and verification see summaries of
     the transformed program — converted callees write the scratch pool *)
  let post_summaries =
    Option.map (fun _ -> Bv_analysis.Summary.compute program) summaries
  in
  if schedule then
    Bv_sched.Sched.schedule_program
      ~alias:(Transform.alias_oracle ?summaries:post_summaries)
      program;
  Validate.check_exn program;
  if verify then
    Bv_analysis.Speculation.check_exn ~scratch:temp_pool
      ?summaries:post_summaries program;
  if prove then
    Bv_analysis.Equiv.check_exn ~scratch:temp_pool ?exit_live ~original
      program;
  { program; reports = List.rev !reports; skipped = List.rev !skipped }
