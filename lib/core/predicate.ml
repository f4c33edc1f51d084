open Bv_isa
open Bv_ir

type site_report =
  { site : int;
    proc : Label.t;
    arm_instrs : int
  }

type result =
  { program : Program.t;
    reports : site_report list;
    skipped : (int * string) list
  }

exception Skip of string

(* Convert one arm to unconditional straight-line code: defs renamed to
   temporaries, loads made non-faulting, stores steered to the null sink
   when the arm loses, and a final cmov per destination committing the
   arm's values when it wins ([(cond <> 0) = on]). *)
let convert_arm ~temps ~cond ~on ~null_sink body =
  let rename = Hashtbl.create 8 in
  let order = ref [] in
  let pool = ref temps in
  let fresh () =
    match !pool with
    | [] -> raise (Skip "arm needs more temporaries than available")
    | t :: rest ->
      pool := rest;
      t
  in
  let temp_for r =
    match Hashtbl.find_opt rename (Reg.index r) with
    | Some t -> t
    | None ->
      let t = fresh () in
      Hashtbl.replace rename (Reg.index r) t;
      order := (r, t) :: !order;
      t
  in
  let subst_reg r =
    match Hashtbl.find_opt rename (Reg.index r) with Some t -> t | None -> r
  in
  let subst_operand = function
    | Instr.Reg r -> Instr.Reg (subst_reg r)
    | Instr.Imm _ as o -> o
  in
  let converted =
    List.concat_map
      (fun instr ->
        match instr with
        | Instr.Alu a ->
          let src1 = subst_reg a.src1 and src2 = subst_operand a.src2 in
          [ Instr.Alu { a with dst = temp_for a.dst; src1; src2 } ]
        | Instr.Fpu a ->
          let src1 = subst_reg a.src1 and src2 = subst_operand a.src2 in
          [ Instr.Fpu { a with dst = temp_for a.dst; src1; src2 } ]
        | Instr.Cmp c ->
          let src1 = subst_reg c.src1 and src2 = subst_operand c.src2 in
          [ Instr.Cmp { c with dst = temp_for c.dst; src1; src2 } ]
        | Instr.Mov m ->
          let src = subst_operand m.src in
          [ Instr.Mov { dst = temp_for m.dst; src } ]
        | Instr.Cmov c ->
          let cond' = subst_reg c.cond and src = subst_operand c.src in
          (* seed the temp with the prior value so a false inner cmov
             keeps it, then rename *)
          let prior = subst_reg c.dst in
          let t = temp_for c.dst in
          let seed =
            if Reg.equal prior t then []
            else [ Instr.Mov { dst = t; src = Instr.Reg prior } ]
          in
          seed @ [ Instr.Cmov { c with cond = cond'; dst = t; src } ]
        | Instr.Load l ->
          let base = subst_reg l.base in
          [ Instr.Load
              { l with dst = temp_for l.dst; base; speculative = true }
          ]
        | Instr.Store s ->
          (* compute the address, steer it to the null sink if this arm
             loses, then store unconditionally *)
          let src = subst_reg s.src and base = subst_reg s.base in
          let t_addr = fresh () in
          [ Instr.Alu { op = Instr.Add; dst = t_addr; src1 = base;
                        src2 = Instr.Imm s.offset };
            Instr.Cmov { on = not on; cond; dst = t_addr;
                         src = Instr.Imm null_sink };
            Instr.Store { src; base = t_addr; offset = 0 }
          ]
        | Instr.Nop -> []
        | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
        | Instr.Predict _ | Instr.Resolve _ | Instr.Halt ->
          raise (Skip "terminator inside an arm body"))
      body
  in
  let commits =
    List.rev_map
      (fun (r, t) -> Instr.Cmov { on; cond; dst = r; src = Instr.Reg t })
      !order
  in
  converted @ commits

let transform_site ~null_sink program candidate =
  let proc = Program.find_proc program candidate.Select.proc in
  let a = Proc.find_block proc candidate.Select.block in
  match a.Block.term with
  | Term.Branch { on; src; taken = c_label; not_taken = b_label; id } ->
    let b = Proc.find_block proc b_label in
    let c = Proc.find_block proc c_label in
    let join =
      match (b.Block.term, c.Block.term) with
      | Term.Jump jb, Term.Jump jc when Label.equal jb jc -> jb
      | _ -> raise (Skip "arms do not join at a common label")
    in
    let pool = Bv_analysis.Hammock.scratch in
    let n = List.length pool in
    let b_temps = List.filteri (fun i _ -> i < n / 2) pool in
    let c_temps = List.filteri (fun i _ -> i >= n / 2) pool in
    let b_conv =
      convert_arm ~temps:b_temps ~cond:src ~on:(not on) ~null_sink
        b.Block.body
    in
    let c_conv =
      convert_arm ~temps:c_temps ~cond:src ~on ~null_sink c.Block.body
    in
    a.Block.body <- a.Block.body @ b_conv @ c_conv;
    a.Block.term <- Term.Jump join;
    proc.Proc.blocks <-
      List.filter
        (fun blk ->
          not
            (Label.equal blk.Block.label b_label
            || Label.equal blk.Block.label c_label))
        proc.Proc.blocks;
    { site = id;
      proc = proc.Proc.name;
      arm_instrs = List.length b_conv + List.length c_conv
    }
  | _ -> raise (Skip "terminator is not a conditional branch")

let apply ~null_sink ~candidates program =
  if null_sink < 0 || null_sink land 7 <> 0 then
    invalid_arg "Predicate.apply: null_sink must be a non-negative aligned \
                 byte address";
  Bv_analysis.Hammock.check_scratch_unused ~caller:"Predicate.apply" program;
  let program = Program.copy program in
  let reports = ref [] in
  let skipped = ref [] in
  List.iter
    (fun cand ->
      match transform_site ~null_sink program cand with
      | report -> reports := report :: !reports
      | exception Skip reason ->
        skipped := (cand.Select.site, reason) :: !skipped)
    candidates;
  Bv_sched.Sched.schedule_program program;
  Validate.check_exn program;
  { program; reports = List.rev !reports; skipped = List.rev !skipped }
