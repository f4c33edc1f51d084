open Bv_isa

type t =
  { order : Label.t list;  (** program's procedure order *)
    callees : (Label.t, Label.t list) Hashtbl.t;
    callers : (Label.t, Label.t list) Hashtbl.t;
    sites : (Label.t, int) Hashtbl.t;
    sccs : Label.t list list;
    scc_of : (Label.t, int) Hashtbl.t;
    recursive : (Label.t, bool) Hashtbl.t
  }

let dedup_keep_order xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

(* Tarjan over the procedure-name graph. The natural emission order —
   a component is finished only after every component reachable from it —
   is exactly the reverse topological order bottom-up analyses want. *)
let tarjan order callees =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        match Hashtbl.find_opt index w with
        | None ->
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        | Some wi ->
          if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) wi))
      (Option.value (Hashtbl.find_opt callees v) ~default:[]);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if Label.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter
    (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
    order;
  List.rev !components

let build program =
  let order = List.map (fun p -> p.Proc.name) program.Program.procs in
  let known = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace known n ()) order;
  let callees = Hashtbl.create 16 in
  let callers = Hashtbl.create 16 in
  let sites = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let name = p.Proc.name in
      let outs = ref [] in
      let count = ref 0 in
      List.iter
        (fun b ->
          match b.Block.term with
          | Term.Call { target; _ } ->
            incr count;
            if Hashtbl.mem known target then outs := target :: !outs
          | _ -> ())
        p.Proc.blocks;
      Hashtbl.replace sites name !count;
      let outs = dedup_keep_order (List.rev !outs) in
      Hashtbl.replace callees name outs;
      List.iter
        (fun callee ->
          let prior = Option.value (Hashtbl.find_opt callers callee) ~default:[] in
          Hashtbl.replace callers callee (prior @ [ name ]))
        outs)
    program.Program.procs;
  let position = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace position n i) order;
  let sccs =
    List.map
      (fun members ->
        List.sort
          (fun a b -> compare (Hashtbl.find position a) (Hashtbl.find position b))
          members)
      (tarjan order callees)
  in
  let scc_of = Hashtbl.create 16 in
  let recursive = Hashtbl.create 16 in
  List.iteri
    (fun i members ->
      let cyclic =
        List.length members > 1
        || List.exists
             (fun m ->
               List.exists (Label.equal m)
                 (Option.value (Hashtbl.find_opt callees m) ~default:[]))
             members
      in
      List.iter
        (fun m ->
          Hashtbl.replace scc_of m i;
          Hashtbl.replace recursive m cyclic)
        members)
    sccs;
  { order; callees; callers; sites; sccs; scc_of; recursive }

let callees t name = Option.value (Hashtbl.find_opt t.callees name) ~default:[]

let callers t name =
  dedup_keep_order (Option.value (Hashtbl.find_opt t.callers name) ~default:[])

let call_sites t name = Option.value (Hashtbl.find_opt t.sites name) ~default:0

let sccs t = t.sccs

let in_recursive_scc t name =
  Option.value (Hashtbl.find_opt t.recursive name) ~default:false

let scc_index t name = Hashtbl.find t.scc_of name

(* Forward "a call lies on some path from entry" fact: out(b) = in(b) or
   b ends in a call; in(b) = disjunction over predecessors. The lattice
   is boolean and monotone, so a round-robin sweep to fixpoint over the
   reachable blocks terminates in O(blocks * diameter). *)
let call_shadowed proc =
  let g = Cfg.make proc in
  let shadowed_in = Array.make (Cfg.size g) false in
  let shadowed_out = Array.make (Cfg.size g) false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        let fact_in = Array.exists (fun p -> shadowed_out.(p)) g.Cfg.preds.(b) in
        let fact_out =
          fact_in
          ||
          match g.Cfg.blocks.(b).Block.term with
          | Term.Call _ -> true
          | _ -> false
        in
        if shadowed_in.(b) <> fact_in || shadowed_out.(b) <> fact_out then begin
          shadowed_in.(b) <- fact_in;
          shadowed_out.(b) <- fact_out;
          changed := true
        end)
      g.Cfg.rpo
  done;
  fun label ->
    match Cfg.find g label with Some b -> shadowed_in.(b) | None -> false
