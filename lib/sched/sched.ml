open Bv_isa
open Bv_ir

let default_latency i =
  match i with
  | Instr.Load _ -> 4
  | Instr.Fpu _ -> 4
  | Instr.Alu { op = Instr.Mul; _ } -> 3
  | _ -> 1

let is_mem = function Instr.Load _ | Instr.Store _ -> true | _ -> false
let is_store = function Instr.Store _ -> true | _ -> false

(* Dependence DAG as successor lists: succs.(j) holds (i, delay) meaning
   instruction i may start [delay] cycles after j starts, and preds.(i)
   counts the edges into i (one per pair and dependence, so a pair can be
   counted more than once).

   Memory ordering: with no alias information stores are barriers (ordered
   against every other memory op). Given [may_alias], only pairs it cannot
   disprove are ordered — provably-disjoint loads hoist past stores; only
   the earlier memory ops are visited, in program order. *)
let dependences ?may_alias ~latency instrs =
  let n = Array.length instrs in
  let succs = Array.make n [] in
  let preds = Array.make n 0 in
  let add_edge from to_ delay =
    succs.(from) <- (to_, delay) :: succs.(from);
    preds.(to_) <- preds.(to_) + 1
  in
  (* By register index: the last writer ([-1]: none) and its readers
     since. *)
  let last_def = Array.make Reg.count (-1) in
  let last_uses = Array.make Reg.count [] in
  let rec raw i = function
    | [] -> ()
    | r :: rest ->
      let j = last_def.(Reg.index r) in
      if j >= 0 then add_edge j i (latency instrs.(j));
      raw i rest
  in
  let rec edges_from js i delay =
    match js with
    | [] -> ()
    | j :: rest ->
      add_edge j i delay;
      edges_from rest i delay
  in
  let rec war_waw i = function
    | [] -> ()
    | r :: rest ->
      let ri = Reg.index r in
      edges_from last_uses.(ri) i 0;
      if last_def.(ri) >= 0 then add_edge last_def.(ri) i 1;
      war_waw i rest
  in
  let rec note_uses i = function
    | [] -> ()
    | r :: rest ->
      let ri = Reg.index r in
      last_uses.(ri) <- i :: last_uses.(ri);
      note_uses i rest
  in
  let rec note_defs i = function
    | [] -> ()
    | r :: rest ->
      let ri = Reg.index r in
      last_def.(ri) <- i;
      last_uses.(ri) <- [];
      note_defs i rest
  in
  let last_store = ref (-1) in
  let loads_since_store = ref [] in
  let mem_ops = Array.make n 0 in
  let mem_count = ref 0 in
  for i = 0 to n - 1 do
    let ins = instrs.(i) in
    let uses = Instr.uses ins and defs = Instr.defs ins in
    (* RAW *)
    raw i uses;
    (* WAR and WAW: same-cycle start is fine in a machine with register
       read-before-write, but keep a 0-delay order edge for determinism. *)
    war_waw i defs;
    (* Memory ordering. *)
    if is_mem ins then begin
      (match may_alias with
      | None ->
        (* Stores are barriers. *)
        if !last_store >= 0 then add_edge !last_store i 1;
        if is_store ins then begin
          edges_from !loads_since_store i 1;
          last_store := i;
          loads_since_store := []
        end
        else loads_since_store := i :: !loads_since_store
      | Some alias ->
        (* Order every prior memory op that may alias, when at least one of
           the pair writes. *)
        for k = 0 to !mem_count - 1 do
          let j = mem_ops.(k) in
          if (is_store ins || is_store instrs.(j)) && alias instrs.(j) ins then
            add_edge j i 1
        done);
      mem_ops.(!mem_count) <- i;
      incr mem_count
    end;
    (* Bookkeeping after edges are drawn. *)
    note_uses i uses;
    note_defs i defs
  done;
  (succs, preds)

(* Critical-path height: cycles from this instruction's start to the end of
   the block. Terminator operands count as consumed at the end. *)
let heights ~latency ~term instrs succs =
  let n = Array.length instrs in
  let term_src =
    match term with
    | Term.Branch { src; _ } | Term.Resolve { src; _ } -> Reg.index src
    | Term.Jump _ | Term.Predict _ | Term.Call _ | Term.Ret | Term.Halt -> -1
  in
  let h = Array.make n 0 in
  for i = n - 1 downto 0 do
    let ins = instrs.(i) in
    let base =
      (* Any def may be live out of the block, so a producer's full latency
         counts towards the block end; terminator sources certainly do. *)
      if
        Instr.defs ins <> []
        || List.exists (fun r -> Reg.index r = term_src) (Instr.uses ins)
      then latency ins
      else 1
    in
    h.(i) <-
      List.fold_left (fun acc (j, d) -> max acc (d + h.(j))) base succs.(i)
  done;
  h

(* List scheduling over a ready list: [by_priority] holds the nodes by
   height, greatest first, lowest index first among equals. A node is
   released when its last predecessor is placed, with its earliest start:
   the latest of its predecessors' starts plus edge delays. Each cycle
   places the first [width] released nodes of [by_priority] whose
   earliest start has come, and only then releases their successors: the
   nodes ready in a cycle are fixed before any of its placements, so a
   0-delay successor starts a cycle later. Cycles in which no released
   node can start are skipped. *)
let schedule_body ?may_alias ?(latency = default_latency) ?(width = 4) ~term
    body =
  if width < 1 then
    invalid_arg (Printf.sprintf "Sched.schedule_body: width %d < 1" width);
  let instrs = Array.of_list body in
  let n = Array.length instrs in
  if n <= 1 then body
  else begin
    let succs, waiting = dependences ?may_alias ~latency instrs in
    let h = heights ~latency ~term instrs succs in
    let by_priority = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare h.(b) h.(a)) by_priority;
    let earliest = Array.make n 0 in
    let placed = Array.make n false in
    let order = Array.make n 0 in
    let count = ref 0 in
    let now = ref 0 in
    while !count < n do
      let first = !count in
      (* the earliest start among released nodes left unplaced *)
      let next = ref max_int in
      for k = 0 to n - 1 do
        let i = by_priority.(k) in
        if (not placed.(i)) && waiting.(i) = 0 then
          if earliest.(i) <= !now && !count - first < width then begin
            placed.(i) <- true;
            order.(!count) <- i;
            incr count
          end
          else next := min !next earliest.(i)
      done;
      for k = first to !count - 1 do
        List.iter
          (fun (i, d) ->
            earliest.(i) <- max earliest.(i) (!now + d);
            waiting.(i) <- waiting.(i) - 1;
            if waiting.(i) = 0 then next := min !next earliest.(i))
          succs.(order.(k))
      done;
      now := max (!now + 1) !next
    done;
    List.init n (fun k -> instrs.(order.(k)))
  end

let schedule_block ?may_alias ?latency ?width block =
  block.Block.body <-
    schedule_body ?may_alias ?latency ?width ~term:block.Block.term
      block.Block.body

let schedule_proc ?may_alias ?latency ?width proc =
  List.iter (schedule_block ?may_alias ?latency ?width) proc.Proc.blocks

let schedule_program ?alias ?latency ?width program =
  List.iter
    (fun proc ->
      let may_alias = Option.map (fun f -> f proc) alias in
      schedule_proc ?may_alias ?latency ?width proc)
    program.Program.procs

let critical_path_cycles ?may_alias ?(latency = default_latency) body =
  let instrs = Array.of_list body in
  let n = Array.length instrs in
  if n = 0 then 0
  else begin
    let succs, _ = dependences ?may_alias ~latency instrs in
    (* predecessors come first, so each start is final when reached *)
    let start = Array.make n 0 in
    let longest = ref 0 in
    for j = 0 to n - 1 do
      longest := max !longest (start.(j) + latency instrs.(j));
      List.iter
        (fun (i, d) -> start.(i) <- max start.(i) (start.(j) + d))
        succs.(j)
    done;
    !longest
  end
