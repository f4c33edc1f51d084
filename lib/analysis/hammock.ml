open Bv_isa
open Bv_ir

let scratch_regs = Array.init 16 (fun i -> Reg.make (48 + i))
let scratch = Array.to_list scratch_regs
let scratch_set = Regset.of_list scratch

let check_scratch_unused ~caller program =
  let in_pool r = Regset.mem r scratch_set in
  let uses_pool b =
    List.exists
      (fun i ->
        List.exists in_pool (Instr.defs i)
        || List.exists in_pool (Instr.uses i))
      b.Block.body
    ||
    match b.Block.term with
    | Term.Branch { src; _ } | Term.Resolve { src; _ } -> in_pool src
    | _ -> false
  in
  if
    List.exists
      (fun p -> List.exists uses_pool p.Proc.blocks)
      program.Program.procs
  then invalid_arg (caller ^ ": program already uses the scratch registers")

let shape_reason (g : Cfg.t) b =
  let taken = g.Cfg.succs.(b).(0) and not_taken = g.Cfg.succs.(b).(1) in
  let is_entry s = Label.equal (Cfg.label g s) g.Cfg.proc.Proc.entry in
  if taken = not_taken then Some "successors are not distinct"
  else if taken = b || not_taken = b then
    Some "successor loops back to the branch block"
  else if is_entry taken || is_entry not_taken then
    Some "successor is the procedure entry"
  else if Array.length g.Cfg.preds.(taken) > 1 then
    Some "taken successor has multiple predecessors"
  else if Array.length g.Cfg.preds.(not_taken) > 1 then
    Some "not-taken successor has multiple predecessors"
  else None

let condition_slice ~src body =
  let _, slice, rest =
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
      (List.rev body)
  in
  (slice, rest)

(* All rules are position-insensitive, so conservative: a violating site
   is skipped rather than analysed more precisely. *)
let slice_hazard ?may_alias ~slice ~rest body =
  let regs_of f =
    List.fold_left
      (fun s i -> Regset.union s (Regset.of_list (f i)))
      Regset.empty
  in
  let slice_defs = regs_of Instr.defs slice in
  let slice_uses = regs_of Instr.uses slice in
  let hazard i =
    (* RAW: the remainder must not consume slice results (they move below
       the predict). *)
    if List.exists (fun r -> Regset.mem r slice_defs) (Instr.uses i) then
      Some
        (Printf.sprintf "non-slice instruction uses slice result: %s"
           (Instr.to_string i))
      (* WAR/WAW: the remainder must not redefine anything the slice reads
         or writes (the slice now executes after the whole remainder). *)
    else if
      List.exists
        (fun r -> Regset.mem r slice_uses || Regset.mem r slice_defs)
        (Instr.defs i)
    then
      Some
        (Printf.sprintf "non-slice instruction redefines slice register: %s"
           (Instr.to_string i))
    else None
  in
  (* No store may follow a slice load in the original order: the load
     moves below every remaining instruction of the block, which is
     observable only for a store that may overlap it. *)
  let rec store_after loads = function
    | [] -> None
    | (Instr.Load _ as i) :: tl when List.memq i slice ->
      store_after (i :: loads) tl
    | (Instr.Store _ as i) :: tl when loads <> [] ->
      let conflicts =
        match may_alias with
        | None -> true
        | Some f -> List.exists (fun l -> f i l) loads
      in
      if conflicts then Some "store after a slice load"
      else store_after loads tl
    | _ :: tl -> store_after loads tl
  in
  match List.find_map hazard rest with
  | Some _ as reason -> reason
  | None -> store_after [] body

let must_rename live ~src ~alternate r =
  Regset.mem r (Liveness.live_in live alternate) || Reg.equal r src

type rename =
  { reg : Reg.t;
    temp : Reg.t;
    at : int;
    seeded : bool
  }

type prefix =
  { length : int;
    renames : rename list
  }

let rec renamed r = function
  | [] -> false
  | rn :: tl -> Reg.equal rn.reg r || renamed r tl

(* Only destinations for which [must_rename] holds take a scratch
   register: dead registers are clobbered for free, which is what keeps
   the commit-move overhead small (paper §3). A register keeps its
   scratch register from its first write on. *)
let hoistable_prefix ~max_hoist ~must_rename body =
  let pool = Array.length scratch_regs in
  (* [k] instructions walked, [placed] of them counted against
     [max_hoist], [n] renames so far, [rev] in reverse order *)
  let rec go k placed n rev = function
    | instr :: rest when placed < max_hoist -> (
      match instr with
      | Instr.Nop -> go (k + 1) placed n rev rest
      | Instr.Alu { dst; _ }
      | Instr.Fpu { dst; _ }
      | Instr.Cmp { dst; _ }
      | Instr.Mov { dst; _ }
      | Instr.Load { dst; _ }
      | Instr.Cmov { dst; _ } ->
        if renamed dst rev || not (must_rename dst) then
          go (k + 1) (placed + 1) n rev rest
        else if n = pool then stop k rev
        else
          (* a conditional move that does not fire keeps its destination,
             so a fresh scratch register must start from the running
             value *)
          let seeded = match instr with Instr.Cmov _ -> true | _ -> false in
          go (k + 1) (placed + 1) (n + 1)
            ({ reg = dst; temp = scratch_regs.(n); at = k; seeded } :: rev)
            rest
      | Instr.Store _ | Instr.Branch _ | Instr.Jump _ | Instr.Call _
      | Instr.Ret | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
        stop k rev)
    | _ -> stop k rev
  and stop k rev = { length = k; renames = List.rev rev } in
  go 0 0 0 [] body

let rec holder_in k r = function
  | [] -> r
  | rn :: tl ->
    if rn.at < k && Reg.equal rn.reg r then rn.temp else holder_in k r tl

let holder p k r = holder_in k r p.renames
