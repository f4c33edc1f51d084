open Bv_isa

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

(* ------------------------------------------------------------- lexical *)

let strip_comment s =
  match String.index_opt s ';' with
  | Some i -> String.sub s 0 i
  | None -> s

let comment_of s =
  match String.index_opt s ';' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> ""

let tokens line s =
  let buf = Buffer.create 8 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | ',' -> flush ()
      | '[' | ']' | '+' ->
        (* '+' sticks to 'ld' (speculative marker) but separates in
           addresses; disambiguate by what is in the buffer *)
        if c = '+' && Buffer.contents buf = "ld" then Buffer.add_char buf c
        else begin
          flush ();
          if c <> ' ' then out := String.make 1 c :: !out
        end
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  ignore line;
  List.rev !out

let parse_reg line tok =
  let n = String.length tok in
  if n < 2 || tok.[0] <> 'r' then fail line "expected a register, got %S" tok
  else
    match int_of_string_opt (String.sub tok 1 (n - 1)) with
    | Some i when i >= 0 && i < Reg.count -> Reg.make i
    | _ -> fail line "bad register %S" tok

let parse_int line tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> fail line "expected an integer, got %S" tok

let parse_imm line tok =
  if String.length tok > 1 && tok.[0] = '#' then
    parse_int line (String.sub tok 1 (String.length tok - 1))
  else fail line "expected an immediate, got %S" tok

let parse_operand line tok =
  if String.length tok > 0 && tok.[0] = '#' then Instr.Imm (parse_imm line tok)
  else Instr.Reg (parse_reg line tok)

let alu_op_of = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl
  | "shr" -> Some Instr.Shr
  | "mul" -> Some Instr.Mul
  | _ -> None

let cmp_op_of = function
  | "eq" -> Some Instr.Eq
  | "ne" -> Some Instr.Ne
  | "lt" -> Some Instr.Lt
  | "ge" -> Some Instr.Ge
  | "le" -> Some Instr.Le
  | "gt" -> Some Instr.Gt
  | _ -> None

let site_of_comment ~default comment =
  let words =
    List.filter (( <> ) "") (String.split_on_char ' ' (String.trim comment))
  in
  match words with
  | "site" :: n :: _ -> Option.value (int_of_string_opt n) ~default
  | _ -> default

(* --------------------------------------------------------- instructions *)

let parse_instr line ~site toks =
  let mem_operand = function
    | [ "["; base; "+"; off; "]" ] -> (parse_reg line base, parse_int line off)
    | rest -> fail line "expected [reg + offset], got %s" (String.concat " " rest)
  in
  match toks with
  | [ "nop" ] -> Instr.Nop
  | [ "halt" ] -> Instr.Halt
  | [ "ret" ] -> Instr.Ret
  | [ "jmp"; l ] -> Instr.Jump l
  | [ "call"; l ] -> Instr.Call l
  | [ "predict"; l ] -> Instr.Predict { target = l; id = site }
  | [ "bnz"; src; l ] ->
    Instr.Branch { on = true; src = parse_reg line src; target = l; id = site }
  | [ "bz"; src; l ] ->
    Instr.Branch { on = false; src = parse_reg line src; target = l; id = site }
  | [ "mov"; dst; src ] ->
    Instr.Mov { dst = parse_reg line dst; src = parse_operand line src }
  | ("ld" | "ld+") :: dst :: mem ->
    let base, offset = mem_operand mem in
    Instr.Load
      { dst = parse_reg line dst; base; offset;
        speculative = List.hd toks = "ld+" }
  | "st" :: src :: mem ->
    let base, offset = mem_operand mem in
    Instr.Store { src = parse_reg line src; base; offset }
  | [ op; dst; src1; src2 ] -> (
    let dotted = String.split_on_char '.' op in
    match dotted with
    | [ "cmp"; c ] -> (
      match cmp_op_of c with
      | Some op ->
        Instr.Cmp
          { op; dst = parse_reg line dst; src1 = parse_reg line src1;
            src2 = parse_operand line src2 }
      | None -> fail line "unknown compare %S" op)
    | [ "cmov"; pol ] ->
      let on =
        match pol with
        | "nz" -> true
        | "z" -> false
        | _ -> fail line "cmov polarity must be nz or z"
      in
      Instr.Cmov
        { on; cond = parse_reg line dst; dst = parse_reg line src1;
          src = parse_operand line src2 }
    | [ "resolve"; _; _ ] -> fail line "resolve takes two operands"
    | [ base ] when String.length base > 1 && base.[0] = 'f' -> (
      match alu_op_of (String.sub base 1 (String.length base - 1)) with
      | Some op ->
        Instr.Fpu
          { op; dst = parse_reg line dst; src1 = parse_reg line src1;
            src2 = parse_operand line src2 }
      | None -> fail line "unknown op %S" op)
    | [ base ] -> (
      match alu_op_of base with
      | Some op ->
        Instr.Alu
          { op; dst = parse_reg line dst; src1 = parse_reg line src1;
            src2 = parse_operand line src2 }
      | None -> fail line "unknown op %S" op)
    | _ -> fail line "unknown op %S" op)
  | [ op; src; l ] when String.length op > 8 && String.sub op 0 7 = "resolve"
    -> (
    match String.split_on_char '.' op with
    | [ "resolve"; pol; pred ] ->
      Instr.Resolve
        { on = (pol = "nz");
          src = parse_reg line src;
          target = l;
          predicted_taken = (pred = "pt");
          id = site
        }
    | _ -> fail line "bad resolve opcode %S" op)
  | [] -> fail line "empty instruction"
  | op :: _ -> fail line "cannot parse instruction starting with %S" op

let instruction text =
  let toks = tokens 1 (strip_comment text) in
  parse_instr 1 ~site:(site_of_comment ~default:0 (comment_of text)) toks

(* -------------------------------------------------------------- program *)

type raw_block =
  { rb_label : string;
    rb_line : int;
    mutable rb_instrs : (int * Instr.t) list  (* reversed *)
  }

let program text =
  let lines = String.split_on_char '\n' text in
  let segments = ref [] in
  let mem_words = ref None in
  let main = ref None in
  (* procs as (name, blocks in reverse); blocks as raw *)
  let procs = ref [] in
  let auto_site = ref 800_000 in
  let current_block = ref None in
  let push_block () = current_block := None in
  let add_instr line i =
    match (!procs, !current_block) with
    | _, Some rb -> rb.rb_instrs <- (line, i) :: rb.rb_instrs
    | _ -> fail line "instruction outside a block (missing a label?)"
  in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let text = strip_comment raw in
      let comment = comment_of raw in
      let toks = tokens line text in
      match toks with
      | [] -> ()
      | [ ".memory"; n ] -> mem_words := Some (parse_int line n)
      | ".data" :: base :: words ->
        segments :=
          { Program.base = parse_int line base;
            contents = Array.of_list (List.map (parse_int line) words)
          }
          :: !segments
      | [ ".main"; name ] -> main := Some name
      | [ "proc"; name ] ->
        push_block ();
        procs := (name, ref []) :: !procs
      | [ l ] when String.length l > 1 && l.[String.length l - 1] = ':' -> (
        let label = String.sub l 0 (String.length l - 1) in
        match !procs with
        | [] -> fail line "label %s outside a proc" label
        | (_, blocks) :: _ ->
          let rb = { rb_label = label; rb_line = line; rb_instrs = [] } in
          blocks := rb :: !blocks;
          current_block := Some rb)
      | toks ->
        incr auto_site;
        let site = site_of_comment ~default:!auto_site comment in
        add_instr line (parse_instr line ~site toks))
    lines;
  (* ---- stitch raw blocks into IR blocks with fall-through targets ---- *)
  let build_proc (name, blocks_ref) =
    let raws = List.rev !blocks_ref in
    if raws = [] then fail 0 "proc %s has no blocks" name;
    let arr = Array.of_list raws in
    let blocks =
      Array.to_list
        (Array.mapi
           (fun i rb ->
             let next () =
               if i + 1 < Array.length arr then arr.(i + 1).rb_label
               else
                 fail rb.rb_line "block %s falls through past the end"
                   rb.rb_label
             in
             let instrs = List.rev rb.rb_instrs in
             let rec split acc = function
               | [] -> (List.rev acc, None)
               | [ (_, last) ] when Instr.is_terminator last ->
                 (List.rev acc, Some last)
               | (l, x) :: rest ->
                 if Instr.is_terminator x then
                   fail l "control transfer in the middle of block %s"
                     rb.rb_label
                 else split ((l, x) :: acc) rest
             in
             let body, term_instr = split [] instrs in
             let body = List.map snd body in
             let term =
               match term_instr with
               | None -> Term.Jump (next ())
               | Some (Instr.Jump l) -> Term.Jump l
               | Some (Instr.Branch { on; src; target; id }) ->
                 Term.Branch { on; src; taken = target; not_taken = next (); id }
               | Some (Instr.Predict { target; id }) ->
                 Term.Predict { taken = target; not_taken = next (); id }
               | Some (Instr.Resolve { on; src; target; predicted_taken; id })
                 ->
                 Term.Resolve
                   { on; src; mispredict = target; fallthrough = next ();
                     predicted_taken; id }
               | Some (Instr.Call target) ->
                 Term.Call { target; return_to = next () }
               | Some Instr.Ret -> Term.Ret
               | Some Instr.Halt -> Term.Halt
               | Some i ->
                 fail rb.rb_line "unexpected terminator %s" (Instr.to_string i)
             in
             Block.make ~label:rb.rb_label ~body ~term)
           arr)
    in
    Proc.make ~name blocks
  in
  (* the last block of a label: a duplicate is the offender *)
  let line_of label =
    List.fold_left
      (fun line (_, blocks) ->
        List.fold_left
          (fun line rb ->
            if Label.equal rb.rb_label label then max line rb.rb_line
            else line)
          line !blocks)
      0 !procs
  in
  let procs = List.rev_map build_proc !procs in
  (match procs with
  | [] -> fail 0 "no procedures"
  | _ -> ());
  let main =
    match !main with
    | Some m -> m
    | None -> (List.hd procs).Proc.name
  in
  let p =
    Program.make ~segments:(List.rev !segments) ?mem_words:!mem_words ~main
      procs
  in
  match Validate.errors p with
  | [] -> p
  | (block, message) :: _ ->
    raise (Parse_error (Option.fold ~none:0 ~some:line_of block, message))
