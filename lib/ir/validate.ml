open Bv_isa

let errors program =
  let errors = ref [] in
  let error ?block fmt =
    Printf.ksprintf (fun s -> errors := (block, s) :: !errors) fmt
  in
  let block_owner = Hashtbl.create 256 in
  let proc_names = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let name = p.Proc.name in
      if Hashtbl.mem proc_names name then error "duplicate procedure %s" name;
      Hashtbl.replace proc_names name ();
      List.iter
        (fun b ->
          let l = b.Block.label in
          if Hashtbl.mem block_owner l then
            error ~block:l "duplicate block label %s" l
          else Hashtbl.replace block_owner l name)
        p.Proc.blocks)
    program.Program.procs;
  Hashtbl.iter
    (fun l _ ->
      if Hashtbl.mem proc_names l then
        error ~block:l "label %s is both a block and a procedure" l)
    block_owner;
  let branch_ids = Hashtbl.create 256 in
  let predict_ids = Hashtbl.create 64 in
  let resolve_ids = Hashtbl.create 64 in
  let call_targets = Hashtbl.create 16 in
  let rets = ref [] in
  List.iter
    (fun p ->
      (match p.Proc.blocks with
      | first :: _ when Label.equal first.Block.label p.Proc.entry -> ()
      | _ -> error "proc %s: entry %s is not first" p.Proc.name p.Proc.entry);
      let check_local b target =
        match Hashtbl.find_opt block_owner target with
        | Some owner when Label.equal owner p.Proc.name -> ()
        | Some owner ->
          error ~block:b.Block.label "block %s targets %s, which belongs to \
            proc %s" b.Block.label target owner
        | None ->
          error ~block:b.Block.label "block %s targets unknown label %s"
            b.Block.label target
      in
      let rec check_blocks = function
        | [] -> ()
        | b :: rest ->
          (match b.Block.term with
          | Term.Jump l -> check_local b l
          | Term.Branch { taken; not_taken; id; _ } ->
            check_local b taken;
            check_local b not_taken;
            if Hashtbl.mem branch_ids id then
              error ~block:b.Block.label "duplicate branch site id %d (block %s)"
                id b.Block.label;
            Hashtbl.replace branch_ids id ()
          | Term.Predict { taken; not_taken; id } ->
            check_local b taken;
            check_local b not_taken;
            if Hashtbl.mem predict_ids id then
              error ~block:b.Block.label
                "duplicate predict site id %d (block %s)" id b.Block.label;
            Hashtbl.replace predict_ids id ()
          | Term.Resolve { mispredict; fallthrough; predicted_taken; id; _ }
            ->
            check_local b mispredict;
            check_local b fallthrough;
            (* One resolve per predicted direction: the transformation emits
               a predicted-taken and a predicted-not-taken arm per site, so
               only a repeated (id, predicted_taken) pair is a duplicate. *)
            let arms =
              Option.value (Hashtbl.find_opt resolve_ids id) ~default:[]
            in
            if List.mem predicted_taken arms then
              error ~block:b.Block.label
                "duplicate resolve site id %d for the predicted-%s arm \
                 (block %s)"
                id
                (if predicted_taken then "taken" else "not-taken")
                b.Block.label;
            Hashtbl.replace resolve_ids id (predicted_taken :: arms)
          | Term.Call { target; return_to } ->
            if not (Hashtbl.mem proc_names target) then
              error ~block:b.Block.label "block %s calls unknown procedure %s"
                b.Block.label target;
            Hashtbl.replace call_targets target ();
            check_local b return_to;
            (match rest with
            | next :: _ when Label.equal next.Block.label return_to -> ()
            | _ ->
              error ~block:b.Block.label
                "block %s: call return_to %s is not the next block"
                b.Block.label return_to)
          | Term.Ret -> rets := (p.Proc.name, b.Block.label) :: !rets
          | Term.Halt -> ());
          check_blocks rest
      in
      check_blocks p.Proc.blocks)
    program.Program.procs;
  (* A ret pops the call stack, so a ret in a procedure no call ever
     targets could only execute with the stack empty — a guaranteed
     interpreter fault. Catch it statically. *)
  List.iter
    (fun (proc, block) ->
      if not (Hashtbl.mem call_targets proc) then
        error ~block "block %s returns from proc %s, which is never called"
          block proc)
    (List.rev !rets);
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem resolve_ids id) then
        error "predict site %d has no resolve" id;
      if Hashtbl.mem branch_ids id then
        error "site id %d used by both a branch and a predict" id)
    predict_ids;
  Hashtbl.iter
    (fun id arms ->
      if Hashtbl.mem branch_ids id then
        error "site id %d used by both a branch and a resolve" id;
      (* A lone predictless resolve is the assert-style form produced by
         assert-conversion; two arms only make sense below a predict. *)
      if (not (Hashtbl.mem predict_ids id)) && List.length arms > 1 then
        error "resolve site id %d has %d arms but no matching predict" id
          (List.length arms))
    resolve_ids;
  List.rev !errors

let check program =
  match errors program with
  | [] -> Ok ()
  | es -> Error (List.map snd es)

let check_exn program =
  match check program with
  | Ok () -> ()
  | Error es -> invalid_arg ("Validate: " ^ String.concat "; " es)
