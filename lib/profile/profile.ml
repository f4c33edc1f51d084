open Bv_bpred
open Bv_exec
open Bv_ir

type site =
  { id : int;
    mutable executed : int;
    mutable taken : int;
    mutable correct : int
  }

type t =
  { sites : (int, site) Hashtbl.t;
    predictor_name : string;
    mutable instr_count : int;
    mutable branch_count : int;
    mutable mispredicts : int
  }

let collect ?(max_instrs = 10_000_000) ~predictor image =
  let t =
    { sites = Hashtbl.create 128;
      predictor_name = predictor.Predictor.name;
      instr_count = 0;
      branch_count = 0;
      mispredicts = 0
    }
  in
  (* The site of the branch at each pc, created on its first execution.
     [Validate] makes branch ids unique per program, so each id has one
     pc, and the id-keyed table keeps its first-execution order. *)
  let unseen = { id = -1; executed = 0; taken = 0; correct = 0 } in
  let at_pc = Array.make (Array.length image.Layout.code) unseen in
  (* Each branch is trained right after its prediction, so one meta row
     serves them all. *)
  let row = Array.make predictor.Predictor.meta_words 0 in
  let on_branch ~id ~pc ~taken =
    let s =
      let s = at_pc.(pc) in
      if s != unseen then s
      else begin
        let s = { id; executed = 0; taken = 0; correct = 0 } in
        Hashtbl.replace t.sites id s;
        at_pc.(pc) <- s;
        s
      end
    in
    s.executed <- s.executed + 1;
    if taken then s.taken <- s.taken + 1;
    t.branch_count <- t.branch_count + 1;
    let pred = predictor.Predictor.predict_at row 0 ~pc ~outcome:taken in
    if pred = taken then s.correct <- s.correct + 1
    else begin
      t.mispredicts <- t.mispredicts + 1;
      predictor.Predictor.recover_at row 0 ~taken
    end;
    predictor.Predictor.update_at row 0 ~pc ~taken
  in
  let hooks = { Interp.no_hooks with on_branch } in
  let state = Interp.run ~hooks ~max_instrs image in
  t.instr_count <- state.Interp.instr_count;
  t

let find t id = Hashtbl.find_opt t.sites id

let taken_rate s =
  if s.executed = 0 then 0.0
  else Float.of_int s.taken /. Float.of_int s.executed

let bias s =
  if s.executed = 0 then 1.0
  else begin
    let r = taken_rate s in
    Float.max r (1.0 -. r)
  end

let predictability s =
  if s.executed = 0 then 1.0
  else Float.of_int s.correct /. Float.of_int s.executed

let mispredicts s = s.executed - s.correct

let mppki t =
  if t.instr_count = 0 then 0.0
  else 1000.0 *. Float.of_int t.mispredicts /. Float.of_int t.instr_count

let sites_by_execution t =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.sites [] in
  List.sort (fun a b -> Int.compare b.executed a.executed) all

let pp ppf t =
  Format.fprintf ppf
    "@[<v>profile (%s): %d instrs, %d branches, %.2f MPPKI"
    t.predictor_name t.instr_count t.branch_count (mppki t);
  List.iter
    (fun s ->
      Format.fprintf ppf
        "@,  site %4d: exec %8d  bias %.3f  predictability %.3f" s.id
        s.executed (bias s) (predictability s))
    (sites_by_execution t);
  Format.fprintf ppf "@]"
