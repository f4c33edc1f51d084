open Bv_isa
open Bv_ir

type pred_class =
  | Loop_back
  | Loop_exit
  | Loop_invariant
  | Data_dependent
  | Straightline

let pred_class_name = function
  | Loop_back -> "loop-back"
  | Loop_exit -> "loop-exit"
  | Loop_invariant -> "loop-invariant"
  | Data_dependent -> "data-dependent"
  | Straightline -> "straightline"

(* Priors are calibrated to the predictor families the harness models:
   loop exits and invariant guards resolve the same way almost every
   time, data-dependent hammocks are the paper's problem case. *)
let class_prior = function
  | Loop_back -> 0.95
  | Loop_exit -> 0.90
  | Loop_invariant -> 0.98
  | Data_dependent -> 0.70
  | Straightline -> 0.85

type side =
  { prefix : int;
    renamed : int;
    seeds : int;
    prefix_height : int;
    merged_height : int
  }

type site_cost =
  { proc : Label.t;
    block : Label.t;
    site : int;
    ineligible : string option;
    forward : bool;
    pred_class : pred_class;
    loop_depth : int;
    slice_size : int;
    slice_height : int;
    not_taken : side;
    taken : side;
    dbb_residency : int;
    window_pressure : int;
    code_growth : int
  }

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* The rewrite's own hoist decisions, counted: where the prefix stops,
   how many destinations take scratch registers and how many of those
   need a seed copy. *)
let side_cost ~may_alias ~max_hoist ~must_rename ~slice body =
  let p = Hammock.hoistable_prefix ~max_hoist ~must_rename body in
  let prefix = take p.Hammock.length body in
  (* Heights are measured on the original registers: renaming is a pure
     substitution and seed moves are zero-height copies, so the shape of
     the dependence DAG is unchanged. *)
  { prefix = p.Hammock.length;
    renamed = List.length p.Hammock.renames;
    seeds =
      List.fold_left
        (fun n rn -> if rn.Hammock.seeded then n + 1 else n)
        0 p.Hammock.renames;
    prefix_height = Bv_sched.Sched.critical_path_cycles ~may_alias prefix;
    merged_height =
      Bv_sched.Sched.critical_path_cycles ~may_alias (slice @ prefix)
  }

let classify (g : Cfg.t) ~loops ~cfg_forward ~slice block =
  let lab = block.Block.label in
  if not cfg_forward then Loop_back
  else
    match Loops.innermost loops lab with
    | None -> Straightline
    | Some header ->
      let body = Loops.body loops header in
      let exits =
        List.exists
          (fun s -> not (Loops.in_loop loops ~header s))
          (Term.successors block.Block.term)
      in
      if exits then Loop_exit
      else begin
        (* Inputs of the slice: registers it reads but does not define. *)
        let slice_defs =
          List.fold_left
            (fun s i -> Regset.union s (Regset.of_list (Instr.defs i)))
            Regset.empty slice
        in
        let inputs =
          List.fold_left
            (fun s i ->
              Regset.union s
                (Regset.of_list
                   (List.filter
                      (fun r -> not (Regset.mem r slice_defs))
                      (Instr.uses i))))
            Regset.empty slice
        in
        let has_load = List.exists (function Instr.Load _ -> true | _ -> false) slice in
        let varying =
          List.exists
            (fun l ->
              let b = g.Cfg.blocks.(Cfg.number g l) in
              (not (Label.equal l lab))
              && List.exists
                   (fun i ->
                     List.exists (fun r -> Regset.mem r inputs) (Instr.defs i))
                   b.Block.body)
            body
        in
        if (not has_load) && not varying then Loop_invariant
        else Data_dependent
      end

let analyze_proc ?(max_hoist = 16) ?exit_live ?summaries proc =
  let g = Cfg.make proc in
  let call_mod = Option.map Summary.call_mod summaries in
  let alias = Alias.analyze ?call_mod g in
  let may_alias = Alias.may_alias alias in
  let slice_alias = Option.map (fun _ -> may_alias) summaries in
  let exit_live = Option.map Liveness.Regset.of_list exit_live in
  let live = Liveness.compute ?exit_live g in
  let loops = Loops.compute g in
  (* A site's DBB window spans its own block (the predict issues at its
     exit) and both successors (the resolve sits at the top of the
     resolution block carved out of them). Pressure at a block is how
     many windows cover it — the static analogue of
     {!Speculation.max_outstanding} on the transformed program. *)
  let windows =
    List.filter_map
      (fun b ->
        match g.Cfg.blocks.(b).Block.term with
        | Term.Branch { id; _ } ->
          Some (id, [ b; g.Cfg.succs.(b).(0); g.Cfg.succs.(b).(1) ])
        | _ -> None)
      (List.init (Cfg.size g) Fun.id)
  in
  (* windows covering each block, a window counted once however often it
     names the block *)
  let covering = Array.make (Cfg.size g) 0 in
  List.iter
    (fun (_, w) ->
      List.iter
        (fun b -> covering.(b) <- covering.(b) + 1)
        (List.sort_uniq Int.compare w))
    windows;
  let pressure_of window =
    List.fold_left (fun acc b -> max acc covering.(b)) 1 window
  in
  List.filter_map
    (fun b ->
      let block = g.Cfg.blocks.(b) in
      match block.Block.term with
      | Term.Branch { src; taken; not_taken; id; _ } ->
        let slice, rest = Hammock.condition_slice ~src block.Block.body in
        let forward = Cfg.is_forward_branch g b in
        let ineligible =
          match Hammock.shape_reason g b with
          | Some r -> Some r
          | None ->
            Hammock.slice_hazard ?may_alias:slice_alias ~slice ~rest
              block.Block.body
        in
        let side_of ~self ~alternate =
          side_cost ~may_alias ~max_hoist
            ~must_rename:(Hammock.must_rename live ~src ~alternate)
            ~slice g.Cfg.blocks.(self).Block.body
        in
        let nt = side_of ~self:g.Cfg.succs.(b).(1) ~alternate:taken in
        let t = side_of ~self:g.Cfg.succs.(b).(0) ~alternate:not_taken in
        let slice_height =
          Bv_sched.Sched.critical_path_cycles ~may_alias slice
        in
        let window =
          match List.assoc_opt id windows with Some w -> w | None -> []
        in
        Some
          { proc = proc.Proc.name;
            block = block.Block.label;
            site = id;
            ineligible;
            forward;
            pred_class = classify g ~loops ~cfg_forward:forward ~slice block;
            loop_depth = Loops.depth loops block.Block.label;
            slice_size = List.length slice;
            slice_height;
            not_taken = nt;
            taken = t;
            (* predict issue + resolve retire bracket the slice *)
            dbb_residency = slice_height + 2;
            window_pressure = pressure_of window;
            code_growth =
              List.length slice + nt.prefix + t.prefix + nt.renamed
              + t.renamed + nt.seeds + t.seeds + 6
          }
      | _ -> None)
    (List.init (Cfg.size g) Fun.id)

let analyze ?max_hoist ?exit_live ?summaries program =
  List.concat_map
    (analyze_proc ?max_hoist ?exit_live ?summaries)
    program.Program.procs

let side_to_json s =
  let open Bv_obs.Json in
  Obj
    [ ("prefix", Int s.prefix);
      ("renamed", Int s.renamed);
      ("seeds", Int s.seeds);
      ("prefix_height", Int s.prefix_height);
      ("merged_height", Int s.merged_height)
    ]

let to_json c =
  let open Bv_obs.Json in
  Obj
    [ ("proc", String c.proc);
      ("block", String c.block);
      ("site", Int c.site);
      ("eligible", Bool (c.ineligible = None));
      ("ineligible_reason",
       match c.ineligible with Some r -> String r | None -> Null);
      ("forward", Bool c.forward);
      ("class", String (pred_class_name c.pred_class));
      ("loop_depth", Int c.loop_depth);
      ("slice_size", Int c.slice_size);
      ("slice_height", Int c.slice_height);
      ("not_taken", side_to_json c.not_taken);
      ("taken", side_to_json c.taken);
      ("dbb_residency", Int c.dbb_residency);
      ("window_pressure", Int c.window_pressure);
      ("code_growth", Int c.code_growth)
    ]
