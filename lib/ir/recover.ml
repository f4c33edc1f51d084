open Bv_isa

module Intset = Set.Make (Int)

let image (img : Layout.image) =
  let code = img.Layout.code in
  let len = Array.length code in
  if len = 0 then invalid_arg "Recover.image: empty code";
  let target_pc pc = img.Layout.targets.(pc) in
  (* ---- leaders and procedure starts ---- *)
  let proc_starts = ref (Intset.singleton img.Layout.entry) in
  let call_names = Hashtbl.create 8 in
  let leaders = ref (Intset.singleton img.Layout.entry) in
  let add_leader pc = if pc < len then leaders := Intset.add pc !leaders in
  Array.iteri
    (fun pc instr ->
      (match instr with
      | Instr.Call l ->
        let t = target_pc pc in
        proc_starts := Intset.add t !proc_starts;
        Hashtbl.replace call_names t l
      | Instr.Branch _ | Instr.Jump _ | Instr.Predict _ | Instr.Resolve _ ->
        add_leader (target_pc pc)
      | _ -> ());
      if Instr.is_terminator instr then add_leader (pc + 1))
    code;
  Intset.iter (fun pc -> add_leader pc) !proc_starts;
  (* ---- naming ---- *)
  let block_label pc = Printf.sprintf "B%d" pc in
  let proc_name pc =
    match Hashtbl.find_opt call_names pc with
    | Some l -> l
    | None -> Printf.sprintf "proc%d" pc
  in
  let retarget pc = block_label (target_pc pc) in
  (* ---- carve blocks ---- *)
  let leader_list = Intset.elements !leaders in
  let next_leader =
    let arr = Array.of_list (leader_list @ [ len ]) in
    fun pc ->
      (* smallest leader strictly greater than pc *)
      let rec go i = if arr.(i) > pc then arr.(i) else go (i + 1) in
      go 0
  in
  let block_of start =
    let stop = next_leader start in
    let rec body pc acc =
      if pc >= stop then (List.rev acc, None)
      else
        let instr = code.(pc) in
        if Instr.is_terminator instr then begin
          if pc <> stop - 1 then
            invalid_arg "Recover.image: terminator inside a block";
          (List.rev acc, Some instr)
        end
        else body (pc + 1) (instr :: acc)
    in
    let body, term_instr = body start [] in
    let fallthrough () =
      if stop >= len then
        invalid_arg
          (Printf.sprintf "Recover.image: fall-through past the end at %d"
             stop);
      block_label stop
    in
    (* a terminator is the block's last instruction *)
    let term_pc = stop - 1 in
    let term =
      match term_instr with
      | None -> Term.Jump (fallthrough ())
      | Some (Instr.Jump _) -> Term.Jump (retarget term_pc)
      | Some (Instr.Branch { on; src; id; target = _ }) ->
        Term.Branch
          { on; src; taken = retarget term_pc; not_taken = fallthrough (); id }
      | Some (Instr.Predict { id; target = _ }) ->
        Term.Predict
          { taken = retarget term_pc; not_taken = fallthrough (); id }
      | Some (Instr.Resolve { on; src; predicted_taken; id; target = _ }) ->
        Term.Resolve
          { on;
            src;
            mispredict = retarget term_pc;
            fallthrough = fallthrough ();
            predicted_taken;
            id
          }
      | Some (Instr.Call _) ->
        Term.Call
          { target = proc_name (target_pc term_pc);
            return_to = fallthrough ()
          }
      | Some Instr.Ret -> Term.Ret
      | Some Instr.Halt -> Term.Halt
      | Some i ->
        invalid_arg
          ("Recover.image: unexpected terminator " ^ Instr.to_string i)
    in
    Block.make ~label:(block_label start) ~body ~term
  in
  (* ---- partition into procedures ---- *)
  let procs =
    let starts = Intset.elements !proc_starts in
    List.map
      (fun pstart ->
        let pend =
          match
            List.filter (fun s -> s > pstart) starts
          with
          | [] -> len
          | next :: _ -> next
        in
        let blocks =
          List.filter_map
            (fun l ->
              if l >= pstart && l < pend then Some (block_of l) else None)
            leader_list
        in
        Proc.make ~name:(proc_name pstart) blocks)
      starts
  in
  let original = img.Layout.program in
  Program.make
    ~segments:original.Program.segments
    ~mem_words:original.Program.mem_words
    ~main:(proc_name img.Layout.entry)
    procs
