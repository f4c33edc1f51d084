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

let select ?(threshold = 0.05) ?(min_executed = 100) ~profile program =
  let candidates = ref [] in
  let forward = ref 0 in
  let rejected_shape = ref 0 in
  let rejected_heuristic = ref 0 in
  List.iter
    (fun proc ->
      let g = Cfg.make proc in
      Array.iteri
        (fun b block ->
          if Cfg.is_forward_branch g b then begin
            incr forward;
            match block.Block.term with
            | Term.Branch { id; _ } ->
              if Bv_analysis.Hammock.shape_reason g b <> None then
                incr rejected_shape
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
        g.Cfg.blocks)
    program.Program.procs;
  { candidates = List.rev !candidates;
    static_forward_branches = !forward;
    rejected_shape = !rejected_shape;
    rejected_heuristic = !rejected_heuristic
  }
