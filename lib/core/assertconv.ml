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

let straighten site (_, likely_taken) =
  let { Transform.proc; block = a; on; src; taken; not_taken; id; _ } =
    site
  in
  let likely_label, rare_label =
    if likely_taken then (taken, not_taken) else (not_taken, taken)
  in
  let likely = Proc.find_block proc likely_label in
  let _, spec, commits, rest =
    Transform.hoist site ~alternate:rare_label likely.Block.body
  in
  let l name = Printf.sprintf "%s@%s.%d" a.Block.label name id in
  let res_label = l "assert" and commit_label = l "acommit" in
  let res_block =
    Block.make ~label:res_label
      ~body:(site.Transform.slice @ spec)
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
    Block.make ~label:commit_label ~body:commits ~term:(Term.Jump likely_label)
  in
  (* straighten the layout: A, assert, commit, then the likely successor *)
  a.Block.body <- site.Transform.rest;
  a.Block.term <- Term.Jump res_label;
  likely.Block.body <- rest;
  proc.Proc.blocks <-
    List.filter
      (fun blk -> not (Label.equal blk.Block.label likely_label))
      proc.Proc.blocks;
  Proc.insert_after proc a.Block.label [ res_block; commit_block; likely ];
  { site = id; proc = proc.Proc.name; likely_taken; hoisted = List.length spec }

let apply ?prove ?exit_live ~candidates program =
  let program, reports, skipped =
    Transform.rewrite ~caller:"Assertconv.apply" ?prove ?exit_live
      ~candidate:fst straighten candidates program
  in
  { program; reports; skipped }
