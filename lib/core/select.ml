open Bv_isa
open Bv_ir
open Bv_profile

type candidate =
  { proc : Label.t;
    block : Label.t;
    site : int;
    bias : float;
    predictability : float;
    executed : int
  }

type t =
  { candidates : candidate list;
    static_forward_branches : int;
    rejected_shape : int;
    rejected_heuristic : int
  }

let pbc t =
  if t.static_forward_branches = 0 then 0.0
  else
    100.0
    *. Float.of_int (List.length t.candidates)
    /. Float.of_int t.static_forward_branches

(* Structural preconditions of the transformation: a hammock-shaped forward
   branch whose two successors are distinct ordinary blocks with this block
   as their only predecessor. *)
let shape_ok proc block preds =
  match block.Block.term with
  | Term.Branch { taken; not_taken; _ } ->
    (not (Label.equal taken not_taken))
    && (not (Label.equal taken block.Block.label))
    && (not (Label.equal not_taken block.Block.label))
    && (not (Label.equal taken proc.Proc.entry))
    && (not (Label.equal not_taken proc.Proc.entry))
    && (match Label.Tbl.find_opt preds taken with
       | Some [ _ ] -> true
       | _ -> false)
    && (match Label.Tbl.find_opt preds not_taken with
       | Some [ _ ] -> true
       | _ -> false)
  | _ -> false

let select ?(threshold = 0.05) ?(min_executed = 100) ~profile program =
  let candidates = ref [] in
  let forward = ref 0 in
  let rejected_shape = ref 0 in
  let rejected_heuristic = ref 0 in
  List.iter
    (fun proc ->
      let preds = Cfg.predecessor_map proc in
      let position = Cfg.block_position proc in
      List.iter
        (fun block ->
          if Cfg.is_forward_branch ~position block then begin
            incr forward;
            match block.Block.term with
            | Term.Branch { id; _ } ->
              if not (shape_ok proc block preds) then incr rejected_shape
              else begin
                match Profile.find profile id with
                | None -> incr rejected_heuristic
                | Some s ->
                  let b = Profile.bias s in
                  let p = Profile.predictability s in
                  if s.executed >= min_executed && p -. b >= threshold then
                    candidates :=
                      { proc = proc.Proc.name;
                        block = block.Block.label;
                        site = id;
                        bias = b;
                        predictability = p;
                        executed = s.executed
                      }
                      :: !candidates
                  else incr rejected_heuristic
              end
            | _ -> ()
          end)
        proc.Proc.blocks)
    program.Program.procs;
  { candidates = List.rev !candidates;
    static_forward_branches = !forward;
    rejected_shape = !rejected_shape;
    rejected_heuristic = !rejected_heuristic
  }
