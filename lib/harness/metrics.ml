open Bv_cache
open Bv_ir
open Bv_isa
open Bv_pipeline
open Bv_workloads

let alpbb program =
  let blocks = ref 0 and loads = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          if b.Block.body <> [] then begin
            incr blocks;
            loads := !loads + Block.load_count b
          end)
        p.Proc.blocks)
    program.Program.procs;
  if !blocks = 0 then 0.0 else Float.of_int !loads /. Float.of_int !blocks

let converted_reports bench =
  (Runner.transform bench).Vanguard.Transform.reports

let site_profile bench id = Bv_profile.Profile.find (Runner.profile bench) id

let pdih bench =
  let profile = Runner.profile bench in
  let hoisted =
    List.fold_left
      (fun acc r ->
        match site_profile bench r.Vanguard.Transform.site with
        | None -> acc
        | Some s ->
          let t = Bv_profile.Profile.taken_rate s in
          acc
          +. Float.of_int s.Bv_profile.Profile.executed
             *. ((t *. Float.of_int r.Vanguard.Transform.hoisted_taken)
                +. (1.0 -. t)
                   *. Float.of_int r.Vanguard.Transform.hoisted_not_taken))
      0.0 (converted_reports bench)
  in
  if profile.Bv_profile.Profile.instr_count = 0 then 0.0
  else 100.0 *. hoisted /. Float.of_int profile.Bv_profile.Profile.instr_count

let phi bench =
  Agg.mean (List.map Vanguard.Transform.phi (converted_reports bench))

let avg_load_latency (run : Runner.run) =
  let cfg = run.Runner.config.Config.cache in
  let m1 = Sa_cache.stats_miss_rate run.Runner.l1d in
  let m2 = Sa_cache.stats_miss_rate run.Runner.l2 in
  let m3 = Sa_cache.stats_miss_rate run.Runner.l3 in
  Float.of_int cfg.Hierarchy.l1_latency
  +. (m1
      *. (Float.of_int cfg.Hierarchy.l2_latency
          +. (m2
              *. (Float.of_int cfg.Hierarchy.l3_latency
                  +. (m3 *. Float.of_int cfg.Hierarchy.mem_latency)))))

(* The dynamic critical path of each converted site's condition slice: its
   static dependence height with load latency set to the benchmark's
   measured average memory latency — i.e. how many cycles the branch's
   resolution lags its inputs (in an in-order, exactly the head-of-line
   stall it induces when nothing overlaps it). *)
let aspcb bench ~base =
  let load_lat = avg_load_latency base in
  let latency i =
    match i with
    | Instr.Load _ -> Float.to_int (Float.round load_lat)
    | _ -> Bv_sched.Sched.default_latency i
  in
  let cycles =
    List.map
      (fun r ->
        Float.of_int
          (Bv_sched.Sched.critical_path_cycles ~latency
             r.Vanguard.Transform.slice_instrs)
        +. 1.0)
      (converted_reports bench)
  in
  Agg.mean cycles

type row =
  { name : string;
    spd : float;
    pbc : float;
    pdih : float;
    alpbb : float;
    aspcb : float;
    phi : float;
    mppki : float;
    piscs : float
  }

let table2_row ~spd ~base bench =
  let spec = Runner.spec bench in
  { name = spec.Spec.name;
    spd;
    pbc = Vanguard.Select.pbc (Runner.selection bench);
    pdih = pdih bench;
    alpbb = alpbb (Gen.generate ~input:1 spec);
    aspcb = aspcb bench ~base;
    phi = phi bench;
    mppki = Stats.mppki base.Runner.stats;
    piscs = Runner.piscs bench
  }

let row_to_json r =
  let open Bv_obs.Json in
  Obj
    [ ("name", String r.name);
      ("spd", float r.spd);
      ("pbc", float r.pbc);
      ("pdih", float r.pdih);
      ("alpbb", float r.alpbb);
      ("aspcb", float r.aspcb);
      ("phi", float r.phi);
      ("mppki", float r.mppki);
      ("piscs", float r.piscs)
    ]
