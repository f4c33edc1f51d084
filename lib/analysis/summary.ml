open Bv_isa
open Bv_ir
module Regset = Regset

type purity = Pure | Read_only | Writes_bounded | Writes_unknown

type footprint = Alias.address list option

type t =
  { name : Label.t;
    mod_regs : Regset.t;
    use_regs : Regset.t;
    loads : footprint;
    stores : footprint;
    recursive : bool
  }

type env =
  { graph : Callgraph.t;
    table : (Label.t, t) Hashtbl.t;
    order : Label.t list
  }

let purity t =
  match t.stores with
  | Some [] -> ( match t.loads with Some [] -> Pure | _ -> Read_only)
  | Some _ -> Writes_bounded
  | None -> Writes_unknown

let store_free t = match t.stores with Some [] -> true | _ -> false

let purity_name = function
  | Pure -> "pure"
  | Read_only -> "read-only"
  | Writes_bounded -> "writes-bounded"
  | Writes_unknown -> "writes-unknown"

let scratch_clean t ~pool =
  let pool = Regset.of_list pool in
  Regset.is_empty (Regset.inter pool (Regset.union t.mod_regs t.use_regs))

(* ----------------------------------------------- footprint algebra -- *)

(* Regions are grouped by base (absolute, or an entry register), sorted
   by their low bound, and coalesced when two same-base windows come
   within one 8-byte access of each other — coalescing only grows a
   may-access set, so it is always sound. A footprint that still spans
   more than [max_regions] windows is hulled per base; that bounds the
   representation, which the SCC fixpoint's equality test relies on. *)
let max_regions = 12

let region_key = function
  | Alias.Absolute _ -> -1
  | Alias.Reg_relative (r, _, _) -> Reg.index r
  | Alias.Unknown -> invalid_arg "Summary.region_key: Unknown"

let region_bounds = function
  | Alias.Absolute (l, h) | Alias.Reg_relative (_, l, h) -> (l, h)
  | Alias.Unknown -> invalid_arg "Summary.region_bounds: Unknown"

let region_make key (l, h) =
  if key < 0 then Alias.Absolute (l, h) else Alias.Reg_relative (Reg.make key, l, h)

let coalesce intervals =
  let sorted = List.sort compare intervals in
  List.fold_left
    (fun acc (l, h) ->
      match acc with
      | (l0, h0) :: rest when h0 > max_int - 8 || l <= h0 + 8 ->
        (l0, max h0 h) :: rest
      | _ -> (l, h) :: acc)
    [] sorted
  |> List.rev

let normalize = function
  | None -> None
  | Some regions ->
    if List.exists (fun r -> r = Alias.Unknown) regions then None
    else begin
      let groups = Hashtbl.create 8 in
      List.iter
        (fun r ->
          let k = region_key r in
          let prior = Option.value (Hashtbl.find_opt groups k) ~default:[] in
          Hashtbl.replace groups k (region_bounds r :: prior))
        regions;
      let merged =
        Hashtbl.fold
          (fun k intervals acc -> (k, coalesce intervals) :: acc)
          groups []
      in
      let total = List.fold_left (fun n (_, is) -> n + List.length is) 0 merged in
      let merged =
        if total <= max_regions then merged
        else
          List.map
            (fun (k, is) ->
              let l = List.fold_left (fun a (l, _) -> min a l) max_int is in
              let h = List.fold_left (fun a (_, h) -> max a h) min_int is in
              (k, [ (l, h) ]))
            merged
      in
      Some
        (List.sort compare
           (List.concat_map
              (fun (k, is) -> List.map (region_make k) is)
              merged))
    end

let add_region fp addr =
  match fp with
  | None -> None
  | Some rs -> ( match addr with Alias.Unknown -> None | a -> Some (a :: rs))

let add_rebased fp callee_fp facts =
  match (fp, callee_fp) with
  | None, _ | _, None -> None
  | Some rs, Some callee ->
    List.fold_left
      (fun acc region -> add_region acc (Alias.rebase region facts))
      (Some rs) callee

(* -------------------------------------------------- per-proc pass -- *)

let terminator_uses = function
  | Term.Branch { src; _ } | Term.Resolve { src; _ } -> [ src ]
  | _ -> []

(* Worst case for a call whose target has no summary (a program Validate
   would reject): the callee may touch anything. *)
let havoc_all =
  { name = "";
    mod_regs = Regset.all;
    use_regs = Regset.all;
    loads = None;
    stores = None;
    recursive = false
  }

let summarize lookup (g : Cfg.t) =
  let callee_of target = Option.value (lookup target) ~default:havoc_all in
  let call_mod target =
    match lookup target with
    | Some s -> Some (Regset.elements s.mod_regs)
    | None -> None
  in
  let solution = Alias.solve ~call_mod g in
  let mod_regs = ref Regset.empty in
  let use_regs = ref Regset.empty in
  let loads = ref (Some []) in
  let stores = ref (Some []) in
  Array.iter
    (fun n ->
      let b = g.Cfg.blocks.(n) in
      List.iter
        (fun i ->
          mod_regs := Regset.union !mod_regs (Regset.of_list (Instr.defs i));
          use_regs := Regset.union !use_regs (Regset.of_list (Instr.uses i)))
        b.Block.body;
      use_regs :=
        Regset.union !use_regs (Regset.of_list (terminator_uses b.Block.term));
      (match Alias.entry_facts solution n with
      | None ->
        (* unreachable from the entry: contributes no dynamic accesses *)
        ()
      | Some facts ->
        List.iter
          (fun i ->
            (match i with
            | Instr.Load { base; offset; _ } ->
              loads := add_region !loads (Alias.address_at facts ~base ~offset)
            | Instr.Store { base; offset; _ } ->
              stores := add_region !stores (Alias.address_at facts ~base ~offset)
            | _ -> ());
            Alias.step_instr facts i)
          b.Block.body;
        match b.Block.term with
        | Term.Call { target; _ } ->
          let callee = callee_of target in
          mod_regs := Regset.union !mod_regs callee.mod_regs;
          use_regs := Regset.union !use_regs callee.use_regs;
          loads := add_rebased !loads callee.loads facts;
          stores := add_rebased !stores callee.stores facts
        | _ -> ()))
    g.Cfg.rpo;
  { name = g.Cfg.proc.Proc.name;
    mod_regs = !mod_regs;
    use_regs = !use_regs;
    loads = normalize !loads;
    stores = normalize !stores;
    recursive = false (* filled in by the driver *)
  }

let equal_t a b =
  Label.equal a.name b.name
  && Regset.equal a.mod_regs b.mod_regs
  && Regset.equal a.use_regs b.use_regs
  && a.loads = b.loads && a.stores = b.stores && a.recursive = b.recursive

(* ----------------------------------------------------- the driver -- *)

(* Rounds of optimistic iteration a recursive SCC gets before its
   still-changing footprints are widened to unbounded. The register sets
   live in a finite lattice and are allowed to keep iterating; only the
   interval footprints can grow forever (a recursive call that rebases
   its own store window by a stride widens it every round). *)
let max_footprint_rounds = 4

let bottom name recursive =
  { name;
    mod_regs = Regset.empty;
    use_regs = Regset.empty;
    loads = Some [];
    stores = Some [];
    recursive
  }

let compute program =
  let graph = Callgraph.build program in
  let table = Hashtbl.create 16 in
  let lookup target = Hashtbl.find_opt table target in
  (* one graph per procedure, shared by every round of its SCC *)
  let graph_of =
    let m = Hashtbl.create 16 in
    List.iter
      (fun p -> Hashtbl.replace m p.Proc.name (Cfg.make p))
      program.Program.procs;
    Hashtbl.find m
  in
  List.iter
    (fun members ->
      match members with
      | [ name ] when not (Callgraph.in_recursive_scc graph name) ->
        Hashtbl.replace table name
          { (summarize lookup (graph_of name)) with recursive = false }
      | _ ->
        List.iter
          (fun name -> Hashtbl.replace table name (bottom name true))
          members;
        let round = ref 0 in
        let changed = ref true in
        while !changed do
          incr round;
          changed := false;
          List.iter
            (fun name ->
              let old = Hashtbl.find table name in
              let nu =
                { (summarize lookup (graph_of name)) with recursive = true }
              in
              let nu =
                if !round < max_footprint_rounds then nu
                else
                  (* widen exactly the components that are still moving *)
                  { nu with
                    loads = (if nu.loads = old.loads then nu.loads else None);
                    stores = (if nu.stores = old.stores then nu.stores else None)
                  }
              in
              if not (equal_t old nu) then begin
                Hashtbl.replace table name nu;
                changed := true
              end)
            members
        done)
    (Callgraph.sccs graph);
  { graph; table; order = List.map (fun p -> p.Proc.name) program.Program.procs }

let graph env = env.graph

let find env name = Hashtbl.find_opt env.table name

let procs env = List.filter_map (find env) env.order

let call_mod env name =
  Option.map (fun s -> Regset.elements s.mod_regs) (find env name)

(* -------------------------------------------------------- reports -- *)

let pp_regset ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat ","
       (List.map (fun r -> Printf.sprintf "r%d" (Reg.index r)) (Regset.elements s)))

let pp_region ppf = function
  | Alias.Absolute (l, h) -> Format.fprintf ppf "[%d,%d]" l h
  | Alias.Reg_relative (r, l, h) ->
    Format.fprintf ppf "r%d+[%d,%d]" (Reg.index r) l h
  | Alias.Unknown -> Format.fprintf ppf "?"

let pp_footprint ppf = function
  | None -> Format.fprintf ppf "unbounded"
  | Some [] -> Format.fprintf ppf "none"
  | Some rs ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
      pp_region ppf rs

let pp ppf t =
  Format.fprintf ppf "%s:%s %s mod=%a use=%a stores=%a loads=%a" t.name
    (if t.recursive then " recursive" else "")
    (purity_name (purity t))
    pp_regset t.mod_regs pp_regset t.use_regs pp_footprint t.stores
    pp_footprint t.loads

let region_json r =
  let open Bv_obs.Json in
  match r with
  | Alias.Absolute (l, h) ->
    Obj [ ("base", Null); ("lo", Int l); ("hi", Int h) ]
  | Alias.Reg_relative (reg, l, h) ->
    Obj [ ("base", Int (Reg.index reg)); ("lo", Int l); ("hi", Int h) ]
  | Alias.Unknown -> Null

let footprint_json fp =
  let open Bv_obs.Json in
  match fp with
  | None -> Null
  | Some rs -> List (List.map region_json rs)

let summary_json env t =
  let open Bv_obs.Json in
  Obj
    [ ("proc", String t.name);
      ("recursive", Bool t.recursive);
      ("purity", String (purity_name (purity t)));
      ("callees",
       List (List.map (fun c -> String c) (Callgraph.callees env.graph t.name)));
      ("mod_regs",
       List (List.map (fun r -> Int (Reg.index r)) (Regset.elements t.mod_regs)));
      ("use_regs",
       List (List.map (fun r -> Int (Reg.index r)) (Regset.elements t.use_regs)));
      ("stores", footprint_json t.stores);
      ("loads", footprint_json t.loads)
    ]

let to_json env =
  let open Bv_obs.Json in
  Obj
    [ ("sccs",
       List
         (List.map
            (fun members -> List (List.map (fun m -> String m) members))
            (Callgraph.sccs env.graph)));
      ("procs", List (List.map (summary_json env) (procs env)))
    ]

let stats_json env =
  let open Bv_obs.Json in
  let summaries = procs env in
  let count p = List.length (List.filter p summaries) in
  Obj
    [ ("procs", Int (List.length summaries));
      ("sccs", Int (List.length (Callgraph.sccs env.graph)));
      ("recursive_procs", Int (count (fun t -> t.recursive)));
      ("store_free", Int (count store_free));
      ("purity",
       Obj
         (List.map
            (fun p ->
              (purity_name p, Int (count (fun t -> purity t = p))))
            [ Pure; Read_only; Writes_bounded; Writes_unknown ]))
    ]
