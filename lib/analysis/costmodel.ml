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

(* Backward closure of [src] through the block body — the same slice the
   transformation sinks into the resolution blocks. *)
let condition_slice body ~src =
  let rev = List.rev body in
  let _, slice_rev, rest_rev =
    List.fold_left
      (fun (need, slice, rest) instr ->
        let defs = Regset.of_list (Instr.defs instr) in
        if not (Regset.is_empty (Regset.inter defs need)) then
          let need =
            Regset.union (Regset.diff need defs)
              (Regset.of_list (Instr.uses instr))
          in
          (need, instr :: slice, rest)
        else (need, slice, instr :: rest))
      (Regset.singleton src, [], [])
      rev
  in
  (slice_rev, rest_rev)

(* Reason strings match the transformation's Skip messages so an advise
   report and a transform's skip list agree verbatim. [may_alias]
   (supplied only in summary mode, where the transform uses the same
   oracle) relaxes the store-after-slice-load rule to stores that may
   actually alias a preceding slice load: sinking the slice below the
   block's remainder reorders each slice load past the stores after it,
   which is observable only for overlapping accesses. *)
let check_slice ?may_alias ~slice ~rest body =
  let regs_of f =
    List.fold_left
      (fun s i -> Regset.union s (Regset.of_list (f i)))
      Regset.empty
  in
  let slice_defs = regs_of Instr.defs slice in
  let slice_uses = regs_of Instr.uses slice in
  let exception Bad of string in
  try
    List.iter
      (fun i ->
        if List.exists (fun r -> Regset.mem r slice_defs) (Instr.uses i) then
          raise
            (Bad
               (Printf.sprintf "non-slice instruction uses slice result: %s"
                  (Instr.to_string i)));
        if
          List.exists
            (fun r -> Regset.mem r slice_uses || Regset.mem r slice_defs)
            (Instr.defs i)
        then
          raise
            (Bad
               (Printf.sprintf
                  "non-slice instruction redefines slice register: %s"
                  (Instr.to_string i))))
      rest;
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
          if conflicts then raise (Bad "store after a slice load")
        | _ -> ())
      body;
    Ok ()
  with Bad reason -> Error reason

(* Mirror of the transformation's hoistable-prefix walk, counting instead
   of rewriting: how many leading instructions of a successor body hoist
   into the resolution block, how many destinations need scratch
   temporaries (live on the alternate path, or feeding the resolve), and
   how many conditional moves need a seed copy for a fresh temporary.
   Stops at the first store, at [max_hoist] placed instructions, or when
   the scratch pool runs dry — exactly where the transform stops. *)
let hoist_counts ~max_hoist ~temp_slots ~must_rename body =
  let renamed = Hashtbl.create 8 in
  let temps = ref temp_slots in
  let seeds = ref 0 in
  let fresh_for r =
    if Hashtbl.mem renamed (Reg.index r) then Some false
    else if not (must_rename r) then Some false
    else if !temps = 0 then None
    else begin
      decr temps;
      Hashtbl.replace renamed (Reg.index r) ();
      Some true
    end
  in
  let rec go taken prefix = function
    | instr :: rest when taken < max_hoist -> (
      let continue dst =
        match fresh_for dst with
        | None -> List.rev prefix
        | Some _ -> go (taken + 1) (instr :: prefix) rest
      in
      match instr with
      | Instr.Store _ -> List.rev prefix
      | Instr.Alu { dst; _ } | Instr.Fpu { dst; _ } | Instr.Cmp { dst; _ }
      | Instr.Mov { dst; _ } | Instr.Load { dst; _ } ->
        continue dst
      | Instr.Cmov { dst; _ } -> (
        if Hashtbl.mem renamed (Reg.index dst) then
          go (taken + 1) (instr :: prefix) rest
        else
          match fresh_for dst with
          | None -> List.rev prefix
          | Some fresh ->
            if fresh then incr seeds;
            go (taken + 1) (instr :: prefix) rest)
      | Instr.Nop -> go taken (instr :: prefix) rest
      | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
      | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
        List.rev prefix)
    | _ -> List.rev prefix
  in
  let prefix = go 0 [] body in
  (prefix, Hashtbl.length renamed, !seeds)

let side_cost ~may_alias ~max_hoist ~temp_slots ~must_rename ~slice body =
  let prefix, renamed, seeds =
    hoist_counts ~max_hoist ~temp_slots ~must_rename body
  in
  (* Heights are measured on the original registers: renaming is a pure
     substitution and seed moves are zero-height copies, so the shape of
     the dependence DAG is unchanged. *)
  { prefix = List.length prefix;
    renamed;
    seeds;
    prefix_height = Bv_sched.Sched.critical_path_cycles ~may_alias prefix;
    merged_height =
      Bv_sched.Sched.critical_path_cycles ~may_alias (slice @ prefix)
  }

(* Structural preconditions of the rewrite, mirroring candidate
   selection: a hammock of distinct, non-entry, single-predecessor
   successors, neither looping straight back to the branch block. The
   three are block numbers of [g]. *)
let shape_reason (g : Cfg.t) ~block ~taken ~not_taken =
  let is_entry b = Label.equal (Cfg.label g b) g.Cfg.proc.Proc.entry in
  if taken = not_taken then Some "successors are not distinct"
  else if taken = block || not_taken = block then
    Some "successor loops back to the branch block"
  else if is_entry taken || is_entry not_taken then
    Some "successor is the procedure entry"
  else if Array.length g.Cfg.preds.(taken) > 1 then
    Some "taken successor has multiple predecessors"
  else if Array.length g.Cfg.preds.(not_taken) > 1 then
    Some "not-taken successor has multiple predecessors"
  else None

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

let analyze_proc ?(max_hoist = 16) ?(temp_slots = 16) ?exit_live ?summaries
    proc =
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
        let slice, rest = condition_slice block.Block.body ~src in
        let forward = Cfg.is_forward_branch g b in
        let ineligible =
          match
            shape_reason g ~block:b ~taken:g.Cfg.succs.(b).(0)
              ~not_taken:g.Cfg.succs.(b).(1)
          with
          | Some r -> Some r
          | None -> (
            match
              check_slice ?may_alias:slice_alias ~slice ~rest block.Block.body
            with
            | Ok () -> None
            | Error r -> Some r)
        in
        let must_rename ~alternate r =
          Liveness.Regset.mem r (Liveness.live_in live alternate)
          || Reg.equal r src
        in
        let side_of ~self ~alternate =
          side_cost ~may_alias ~max_hoist ~temp_slots
            ~must_rename:(must_rename ~alternate) ~slice
            g.Cfg.blocks.(self).Block.body
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

let analyze ?max_hoist ?temp_slots ?exit_live ?summaries program =
  List.concat_map
    (analyze_proc ?max_hoist ?temp_slots ?exit_live ?summaries)
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
