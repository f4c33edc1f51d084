open Bv_isa
open Bv_ir

let pass_names =
  [ "pairing"; "spec-window"; "correction"; "scratch-uninit"; "reachability" ]

let default_dbb_entries = 16

module Intset = Set.Make (Int)

module Sites_may = Dataflow.Make (struct
  type t = Intset.t

  let equal = Intset.equal
  let join = Intset.union
end)

module Sites_must = Dataflow.Make (struct
  type t = Intset.t

  let equal = Intset.equal
  let join = Intset.inter
end)

module Spec_defs = Dataflow.Make (struct
  type t = Regset.t

  let equal = Regset.equal
  let join = Regset.union
end)

module Must_defined = Dataflow.Make (struct
  type t = Regset.t

  let equal = Regset.equal
  let join = Regset.inter
end)

(* Outstanding-predict transfer: the body cannot open or close a window
   (predicts and resolves are terminators only), so only the terminator
   acts. *)
let sites_transfer b s =
  match b.Block.term with
  | Term.Predict { id; _ } -> Intset.add id s
  | Term.Resolve { id; _ } -> Intset.remove id s
  | _ -> s

let body_defs body =
  List.fold_left
    (fun s i -> Regset.union s (Regset.of_list (Instr.defs i)))
    Regset.empty body

(* Registers read before any write in the block, terminator source
   included. *)
let upward_exposed_uses b =
  let exposed, defined =
    List.fold_left
      (fun (exposed, defined) i ->
        let uses = Regset.of_list (Instr.uses i) in
        ( Regset.union exposed (Regset.diff uses defined),
          Regset.union defined (Regset.of_list (Instr.defs i)) ))
      (Regset.empty, Regset.empty)
      b.Block.body
  in
  match b.Block.term with
  | Term.Branch { src; _ } | Term.Resolve { src; _ } ->
    if Regset.mem src defined then exposed else Regset.add src exposed
  | _ -> exposed

(* The same backward closure as Hammock.condition_slice: the in-block
   instructions the resolve condition depends on. Derived here on its
   own, since this pass checks the rewrite's output. *)
let condition_slice body ~src =
  let _, slice, rest =
    List.fold_left
      (fun (need, slice, rest) instr ->
        let defs = Regset.of_list (Instr.defs instr) in
        if not (Regset.is_empty (Regset.inter defs need)) then
          let need =
            Regset.union (Regset.diff need defs)
              (Regset.of_list (Instr.uses instr))
          in
          (need, instr :: slice, rest)
        else (need, slice, instr :: rest))
      (Regset.singleton src, [], [])
      (List.rev body)
  in
  (slice, rest)

type proc_facts =
  { cfg : Cfg.t;
    may : Sites_may.solution;
    must : Sites_must.solution;
    spec : Spec_defs.solution;
    predict_ids : Intset.t;
    resolve_arms : (int, int) Hashtbl.t  (** resolve terminators per id *)
  }

let callee_mods summaries target =
  match Summary.find summaries target with
  | Some s -> s.Summary.mod_regs
  | None -> Regset.all

let compute_facts ?summaries (g : Cfg.t) =
  let may =
    Sites_may.solve ~direction:Dataflow.Forward ~boundary:Intset.empty
      ~transfer:sites_transfer g
  in
  let must =
    Sites_must.solve ~direction:Dataflow.Forward ~boundary:Intset.empty
      ~transfer:sites_transfer g
  in
  (* A block's body runs speculatively iff a predict is outstanding at its
     entry; a window closing in the block resets nothing retroactively.
     When an interprocedural summary permits the window to span a call,
     everything the callee may write is speculative in the continuation. *)
  let spec_transfer b s =
    let speculative =
      match Sites_may.fact_in may b.Block.label with
      | Some sites -> not (Intset.is_empty sites)
      | None -> false
    in
    if not speculative then Regset.empty
    else begin
      let s = Regset.union s (body_defs b.Block.body) in
      match (b.Block.term, summaries) with
      | Term.Call { target; _ }, Some env ->
        Regset.union s (callee_mods env target)
      | _ -> s
    end
  in
  let spec =
    Spec_defs.solve ~direction:Dataflow.Forward ~boundary:Regset.empty
      ~transfer:spec_transfer g
  in
  let predict_ids = ref Intset.empty in
  let resolve_arms = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      match b.Block.term with
      | Term.Predict { id; _ } -> predict_ids := Intset.add id !predict_ids
      | Term.Resolve { id; _ } ->
        let n = Option.value (Hashtbl.find_opt resolve_arms id) ~default:0 in
        Hashtbl.replace resolve_arms id (n + 1)
      | _ -> ())
    g.Cfg.blocks;
  { cfg = g;
    may;
    must;
    spec;
    predict_ids = !predict_ids;
    resolve_arms
  }

let pairing_pass ~dbb_entries ?summaries ?(scratch_pool = []) facts =
  let pass = "pairing" in
  let proc = facts.cfg.Cfg.proc.Proc.name in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  Array.iter
    (fun n ->
      let b = facts.cfg.Cfg.blocks.(n) in
      let label = b.Block.label in
      let may_in =
        Option.value (Sites_may.fact_in_at facts.may n) ~default:Intset.empty
      in
      let must_in =
        Option.value
          (Sites_must.fact_in_at facts.must n)
          ~default:Intset.empty
      in
      (* Predicts and resolves are terminators, so the fact at the block
         entry is also the fact at the terminator. *)
      (match b.Block.term with
      | Term.Predict { id; _ } ->
        if Intset.mem id may_in then
          emit
            (Diagnostic.error ~block:label ~site:id ~pass ~proc
               "re-predict of site %d while a predict for it may still be \
                outstanding"
               id);
        let out = Intset.add id may_in in
        if Intset.cardinal out > dbb_entries then
          emit
            (Diagnostic.error ~block:label ~site:id ~pass ~proc
               "%d predict sites may be outstanding after this predict, but \
                the DBB holds %d entries"
               (Intset.cardinal out) dbb_entries)
      | Term.Resolve { id; predicted_taken; _ } ->
        if not (Intset.mem id facts.predict_ids) then begin
          let arms =
            Option.value (Hashtbl.find_opt facts.resolve_arms id) ~default:0
          in
          if arms > 1 then
            emit
              (Diagnostic.error ~block:label ~site:id ~pass ~proc
                 "%d resolves for site %d but no predict anywhere in the \
                  procedure"
                 arms id)
          else
            emit
              (Diagnostic.info ~block:label ~site:id ~pass ~proc
                 "assert-style resolve (predicted %s) with no paired predict"
                 (if predicted_taken then "taken" else "not taken"))
        end
        else if not (Intset.mem id may_in) then
          emit
            (Diagnostic.error ~block:label ~site:id ~pass ~proc
               "resolve of site %d with no outstanding predict on any path \
                (double resolve, or resolve before predict)"
               id)
        else if not (Intset.mem id must_in) then
          emit
            (Diagnostic.error ~block:label ~site:id ~pass ~proc
               "resolve of site %d is not dominated by its predict: some \
                path reaches it without an outstanding predict"
               id)
      | Term.Call { target; _ } ->
        if not (Intset.is_empty may_in) then begin
          let sites =
            String.concat ", "
              (List.map string_of_int (Intset.elements may_in))
          in
          match summaries with
          | None ->
            emit
              (Diagnostic.error ~block:label ~pass ~proc
                 "call with predict sites {%s} possibly outstanding; the DBB \
                  does not survive a procedure change"
                 sites)
          | Some env -> (
            match Summary.find env target with
            | None ->
              emit
                (Diagnostic.error ~block:label ~pass ~proc
                   "call with predict sites {%s} outstanding targets unknown \
                    procedure %s; no summary can justify the window"
                   sites target)
            | Some s ->
              if
                Summary.store_free s
                && Summary.scratch_clean s ~pool:scratch_pool
              then begin
                emit
                  (Diagnostic.info ~block:label ~pass ~proc
                     "call with predict sites {%s} outstanding permitted: \
                      callee %s is store-free and scratch-clean \
                      (interprocedural summary)"
                     sites target);
                if Summary.purity s <> Summary.Pure then
                  emit
                    (Diagnostic.warning ~block:label ~pass ~proc
                       "callee %s loads under an open speculative window; \
                        its loads are not marked non-faulting"
                       target)
              end
              else
                emit
                  (Diagnostic.error ~block:label ~pass ~proc
                     "call with predict sites {%s} possibly outstanding; \
                      callee %s %s, so the window cannot span it \
                      (interprocedural summary)"
                     sites target
                     (if not (Summary.store_free s) then "may store"
                      else "touches the scratch pool")))
        end
      | Term.Ret ->
        if not (Intset.is_empty may_in) then
          emit
            (Diagnostic.error ~block:label ~pass ~proc
               "return with predict sites {%s} possibly outstanding; their \
                resolves can never execute"
               (String.concat ", "
                  (List.map string_of_int (Intset.elements may_in))))
      | _ -> ()))
    facts.cfg.Cfg.rpo;
  List.rev !diags

let spec_window_pass facts =
  let pass = "spec-window" in
  let proc = facts.cfg.Cfg.proc.Proc.name in
  let diags = ref [] in
  Array.iter
    (fun n ->
      match Sites_may.fact_in_at facts.may n with
      | None -> ()
      | Some sites when Intset.is_empty sites -> ()
      | Some _ ->
        let b = facts.cfg.Cfg.blocks.(n) in
        let label = b.Block.label in
        List.iter
          (fun i ->
            match i with
            | Instr.Store _ ->
              diags :=
                Diagnostic.error ~block:label ~pass ~proc
                  "store inside a speculative window; stores must not \
                   retire before the predict resolves"
                :: !diags
            | Instr.Load { speculative = false; _ } ->
              diags :=
                Diagnostic.warning ~block:label ~pass ~proc
                  "load inside a speculative window is not marked \
                   speculative (non-faulting)"
                :: !diags
            | _ -> ())
          b.Block.body)
    facts.cfg.Cfg.rpo;
  List.rev !diags

let correction_pass facts =
  let pass = "correction" in
  let proc = facts.cfg.Cfg.proc.Proc.name in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  Array.iter
    (fun n ->
      let b = facts.cfg.Cfg.blocks.(n) in
      match b.Block.term with
      | Term.Resolve { src; mispredict; id; _ }
        when Intset.mem id facts.predict_ids -> begin
        (* Registers that may hold speculative values when the mispredict
           edge is taken: everything written inside the window, minus the
           resolve block's own condition slice — the slice computes the
           original branch condition, so its results are path-independent
           (unless something else in the window also wrote them). *)
        let slice, rest = condition_slice b.Block.body ~src in
        let safe = Regset.diff (body_defs slice) (body_defs rest) in
        let spec_in =
          Option.value (Spec_defs.fact_in_at facts.spec n)
            ~default:Regset.empty
        in
        let danger =
          Regset.diff (Regset.union spec_in (body_defs b.Block.body)) safe
        in
        (* [Term.successors] lists the mispredict target first *)
        let m = facts.cfg.Cfg.blocks.(facts.cfg.Cfg.succs.(n).(0)) in
        List.iter
          (fun i ->
            match i with
            | Instr.Store _ ->
              emit
                (Diagnostic.error ~block:mispredict ~site:id ~pass ~proc
                   "correction block contains a store; correction code \
                    must be idempotent")
            | _ -> ())
          m.Block.body;
        let tainted_reads = Regset.inter (upward_exposed_uses m) danger in
        if not (Regset.is_empty tainted_reads) then
          emit
            (Diagnostic.error ~block:mispredict ~site:id ~pass ~proc
               "correction block reads {%s} before defining them, but \
                they may hold speculative values on the mispredict edge"
               (String.concat ", "
                  (List.map
                     (fun r -> Printf.sprintf "r%d" (Reg.index r))
                     (Regset.elements tainted_reads))))
      end
      | _ -> ())
    facts.cfg.Cfg.rpo;
  List.rev !diags

(* Scratch registers (the transformation's rename pool) hold no program
   values by contract, so every read of one must be dominated by a write —
   an undominated read is the signature of a mis-renamed partial write
   (e.g. a conditional move whose destination was renamed without seeding
   the temp). Must-defined analysis: intersection at joins. *)
let scratch_uninit_pass ~scratch facts =
  if Regset.is_empty scratch then []
  else begin
    let pass = "scratch-uninit" in
    let proc = facts.cfg.Cfg.proc.Proc.name in
    let instr_scratch_defs i =
      Regset.inter (Regset.of_list (Instr.defs i)) scratch
    in
    let sol =
      Must_defined.solve ~direction:Dataflow.Forward ~boundary:Regset.empty
        ~transfer:(fun b s ->
          List.fold_left
            (fun s i -> Regset.union s (instr_scratch_defs i))
            s b.Block.body)
        facts.cfg
    in
    List.concat_map
      (fun n ->
        let b = facts.cfg.Cfg.blocks.(n) in
        let label = b.Block.label in
        let defined =
          ref
            (Option.value (Must_defined.fact_in_at sol n)
               ~default:Regset.empty)
        in
        let diags = ref [] in
        let check_uses uses =
          let bad =
            Regset.diff (Regset.inter (Regset.of_list uses) scratch) !defined
          in
          if not (Regset.is_empty bad) then
            diags :=
              Diagnostic.error ~block:label ~pass ~proc
                "read of scratch register(s) {%s} with no dominating \
                 definition; scratch registers hold no program values"
                (String.concat ", "
                   (List.map
                      (fun r -> Printf.sprintf "r%d" (Reg.index r))
                      (Regset.elements bad)))
              :: !diags
        in
        List.iter
          (fun i ->
            check_uses (Instr.uses i);
            defined := Regset.union !defined (instr_scratch_defs i))
          b.Block.body;
        (match b.Block.term with
        | Term.Branch { src; _ } | Term.Resolve { src; _ } ->
          check_uses [ src ]
        | _ -> ());
        List.rev !diags)
      (Array.to_list facts.cfg.Cfg.rpo)
  end

let reachability_pass facts =
  let pass = "reachability" in
  let g = facts.cfg in
  let proc = g.Cfg.proc.Proc.name in
  List.filter_map
    (fun n ->
      if Cfg.reachable g n then None
      else
        Some
          (Diagnostic.warning ~block:(Cfg.label g n) ~pass ~proc
             "block is unreachable from the procedure entry"))
    (List.init (Cfg.size g) Fun.id)

(* Peak DBB occupancy: the largest may-outstanding predict set at any
   block boundary (block-exit facts, so a predict terminator counts at
   the block that issues it). The cost-model advisor cross-checks its
   static window estimates against this on transformed programs. *)
let max_outstanding proc =
  let g = Cfg.make proc in
  let may =
    Sites_may.solve ~direction:Dataflow.Forward ~boundary:Intset.empty
      ~transfer:sites_transfer g
  in
  let peak = ref 0 in
  Array.iteri
    (fun n b ->
      let fact_in =
        Option.value (Sites_may.fact_in_at may n) ~default:Intset.empty
      in
      peak := max !peak (Intset.cardinal (sites_transfer b fact_in)))
    g.Cfg.blocks;
  !peak

let verify_proc ?(dbb_entries = default_dbb_entries) ?(scratch = []) ?summaries
    proc =
  let facts = compute_facts ?summaries (Cfg.make proc) in
  let scratch_pool = scratch in
  let scratch = Regset.of_list scratch in
  pairing_pass ~dbb_entries ?summaries ~scratch_pool facts
  @ spec_window_pass facts
  @ correction_pass facts
  @ scratch_uninit_pass ~scratch facts
  @ reachability_pass facts

let verify ?dbb_entries ?scratch ?summaries program =
  Diagnostic.sort
    (List.concat_map
       (verify_proc ?dbb_entries ?scratch ?summaries)
       program.Program.procs)

let check_exn ?dbb_entries ?scratch ?summaries program =
  match
    List.filter Diagnostic.is_error
      (verify ?dbb_entries ?scratch ?summaries program)
  with
  | [] -> ()
  | errors ->
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "speculation-safety verification failed:";
    List.iter (fun d -> Format.fprintf ppf "@\n  %a" Diagnostic.pp d) errors;
    Format.pp_print_flush ppf ();
    invalid_arg (Buffer.contents buf)
