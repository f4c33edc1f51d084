open Bv_isa

type image =
  { code : Instr.t array;
    labels : (Label.t, int) Hashtbl.t;
    targets : int array;
    entry : int;
    program : Program.t
  }

(* Lowered form of a terminator, given the label of the next block in layout
   order (if any). *)
let lower_term term ~next =
  let needs_jump l =
    match next with Some n when Label.equal n l -> false | _ -> true
  in
  let jump_to l = if needs_jump l then [ Instr.Jump l ] else [] in
  match term with
  | Term.Jump l -> jump_to l
  | Term.Branch { on; src; taken; not_taken; id } ->
    Instr.Branch { on; src; target = taken; id } :: jump_to not_taken
  | Term.Predict { taken; not_taken; id } ->
    Instr.Predict { target = taken; id } :: jump_to not_taken
  | Term.Resolve { on; src; mispredict; fallthrough; predicted_taken; id } ->
    Instr.Resolve { on; src; target = mispredict; predicted_taken; id }
    :: jump_to fallthrough
  | Term.Call { target; return_to = _ } -> [ Instr.Call target ]
  | Term.Ret -> [ Instr.Ret ]
  | Term.Halt -> [ Instr.Halt ]

let block_instrs block ~next =
  block.Block.body @ lower_term block.Block.term ~next

let program prog =
  Validate.check_exn prog;
  let labels = Hashtbl.create 256 in
  let chunks = ref [] in
  let pc = ref 0 in
  List.iter
    (fun p ->
      Hashtbl.replace labels p.Proc.name !pc;
      let rec emit = function
        | [] -> ()
        | b :: rest ->
          let next =
            match rest with
            | nb :: _ -> Some nb.Block.label
            | [] -> None
          in
          Hashtbl.replace labels b.Block.label !pc;
          let instrs = block_instrs b ~next in
          pc := !pc + List.length instrs;
          chunks := instrs :: !chunks;
          emit rest
      in
      emit p.Proc.blocks)
    prog.Program.procs;
  let code = Array.of_list (List.concat (List.rev !chunks)) in
  (* [Validate.check_exn] has proved that every label exists. *)
  let targets =
    Array.map
      (fun i ->
        match Instr.branch_target i with
        | Some l -> Hashtbl.find labels l
        | None -> -1)
      code
  in
  let entry =
    let main = Program.find_proc prog prog.Program.main in
    Hashtbl.find labels main.Proc.entry
  in
  { code; labels; targets; entry; program = prog }

let static_bytes image = 4 * Array.length image.code

let resolve image l =
  match Hashtbl.find_opt image.labels l with
  | Some pc -> pc
  | None -> raise Not_found

let pp_disassembly ppf image =
  let pc_label = Hashtbl.create 256 in
  Hashtbl.iter
    (fun l pc ->
      let existing = Option.value (Hashtbl.find_opt pc_label pc) ~default:[] in
      Hashtbl.replace pc_label pc (l :: existing))
    image.labels;
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun pc i ->
      (match Hashtbl.find_opt pc_label pc with
      | Some ls ->
        List.iter (fun l -> Format.fprintf ppf "%a:@," Label.pp l) ls
      | None -> ());
      Format.fprintf ppf "  %04d: %a@," pc Instr.pp i)
    image.code;
  Format.fprintf ppf "@]"
