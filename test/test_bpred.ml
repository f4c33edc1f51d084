open Bv_bpred

(* Drive a predictor through an outcome sequence in program order (predict,
   repair history on a miss, train) and return its accuracy over the
   outcomes from index [skip] on (the earlier ones only warm it up). *)
let accuracy ?(pc = 0x400) ?(skip = 0) (p : Predictor.t) outcomes =
  let correct = ref 0 in
  Array.iteri
    (fun i taken ->
      let pred, meta = p.Predictor.predict ~pc ~outcome:taken in
      if pred = taken then (if i >= skip then incr correct)
      else p.Predictor.recover meta ~taken;
      p.Predictor.update meta ~pc ~taken)
    outcomes;
  Float.of_int !correct /. Float.of_int (Array.length outcomes - skip)

let periodic n pattern = Array.init n (fun i -> pattern.(i mod Array.length pattern))

let test_counters () =
  Alcotest.(check int) "saturates high" 3
    (Predictor.counter_update 3 ~taken:true ~max:3);
  Alcotest.(check int) "saturates low" 0
    (Predictor.counter_update 0 ~taken:false ~max:3);
  Alcotest.(check int) "increments" 2
    (Predictor.counter_update 1 ~taken:true ~max:3);
  Alcotest.(check bool) "taken above midpoint" true
    (Predictor.counter_taken 2 ~max:3);
  Alcotest.(check bool) "not taken below" false
    (Predictor.counter_taken 1 ~max:3)

let test_static () =
  let t = Predictor.always true and nt = Predictor.always false in
  Alcotest.(check (float 0.01)) "always-taken on all-taken" 1.0
    (accuracy t (Array.make 100 true));
  Alcotest.(check (float 0.01)) "always-nt on all-taken" 0.0
    (accuracy nt (Array.make 100 true))

let test_perfect () =
  let outcomes = Array.init 200 (fun i -> i * 7 mod 3 = 0) in
  Alcotest.(check (float 0.001)) "oracle" 1.0
    (accuracy Predictor.perfect outcomes)

let test_bimodal_learns_bias () =
  let p = Bimodal.create () in
  let outcomes = Array.init 1000 (fun i -> i mod 10 <> 0) in
  (* 90% taken *)
  let a = accuracy p outcomes in
  Alcotest.(check bool) (Printf.sprintf "bimodal ~bias (%.2f)" a) true
    (a > 0.85)

let test_gshare_learns_pattern () =
  let p = Gshare.create () in
  let outcomes = periodic 2000 [| true; false |] in
  let a = accuracy p outcomes in
  Alcotest.(check bool) (Printf.sprintf "gshare alternation (%.3f)" a) true
    (a > 0.97)

let test_bimodal_fails_pattern () =
  let p = Bimodal.create () in
  let outcomes = periodic 2000 [| true; false |] in
  let a = accuracy p outcomes in
  Alcotest.(check bool) "bimodal can't learn alternation" true (a < 0.7)

let test_tournament_beats_components () =
  (* biased stream favours bimodal; patterned favours gshare; the chooser
     should track both *)
  let patterned = periodic 4000 [| true; true; false; true |] in
  let a = accuracy (Tournament.create ()) patterned in
  Alcotest.(check bool) (Printf.sprintf "tournament pattern (%.3f)" a) true
    (a > 0.95)

let test_tage_long_history () =
  (* a pattern longer than gshare-small's 8-bit history *)
  let pattern = Array.init 24 (fun i -> i mod 8 < 3 || i = 20) in
  let stream = periodic 30000 pattern in
  let small = accuracy (Gshare.create ~table_bits:13 ~history_bits:8 ()) stream in
  let tage = accuracy (Tage.create ()) stream in
  Alcotest.(check bool)
    (Printf.sprintf "tage (%.3f) > short gshare (%.3f)" tage small)
    true
    (tage > small && tage > 0.95)

let test_isl_loop_predictor () =
  (* classic loop-exit shape: taken 40x then one not-taken; the loop
     predictor captures the trip count exactly *)
  let pattern = Array.init 41 (fun i -> i <> 40) in
  let stream = periodic 30000 pattern in
  let isl = accuracy (Isl_tage.create ()) stream in
  Alcotest.(check bool) (Printf.sprintf "isl-tage loop (%.4f)" isl) true
    (isl > 0.99)

let test_perceptron_correlation () =
  (* outcome = XOR of the last two outcomes: linearly separable over
     history bits, beyond a bimodal counter but easy for a perceptron *)
  let outcomes = Array.make 20000 false in
  let rng = Bv_workloads.Rng.create ~seed:8 in
  for i = 2 to 19999 do
    outcomes.(i) <-
      (if Bv_workloads.Rng.bernoulli rng 0.02 then Bv_workloads.Rng.bernoulli rng 0.5
       else outcomes.(i - 1) <> outcomes.(i - 2))
  done;
  let perc = accuracy (Perceptron.create ()) outcomes in
  let bim = accuracy (Bimodal.create ()) outcomes in
  Alcotest.(check bool)
    (Printf.sprintf "perceptron %.3f beats bimodal %.3f" perc bim)
    true
    (perc > 0.9 && perc > bim +. 0.2)

let test_perceptron_weight_saturation () =
  (* a constant stream must not overflow the weights and stays perfect *)
  let p = Perceptron.create ~weight_bits:4 () in
  let a = accuracy p (Array.make 50000 true) in
  Alcotest.(check bool) (Printf.sprintf "saturated weights ok (%.4f)" a) true
    (a > 0.99)

let test_history_recovery () =
  (* after recover, the history must equal the snapshot plus the corrected
     outcome: feeding the same stream with constant mispredict-repairs must
     keep behaviour deterministic *)
  let p1 = Gshare.create () and p2 = Gshare.create () in
  let stream = Array.init 500 (fun i -> i mod 3 = 0) in
  let a1 = accuracy p1 stream and a2 = accuracy p2 stream in
  Alcotest.(check (float 0.0001)) "deterministic" a1 a2

(* History reach, after Chen et al., "Dissecting Conditional Branch
   Predictors of Apple Firestorm and Qualcomm Oryon" (arXiv 2411.13900):
   one branch runs a loop pattern of period [p], taken [p - 1] times and
   then not taken once. A history predictor predicts the exit only when
   its history spans the whole period, so the longest period it predicts
   perfectly after warm-up reads how far back it sees. *)
let steady_loop_accuracy kind p =
  let warmup = 64 and measure = 32 in
  let stream = periodic ((warmup + measure) * p) (Array.init p (fun i -> i < p - 1)) in
  accuracy ~skip:(warmup * p) (Kind.create kind) stream

(* The longest period from 2 up to [cap] that is learnt perfectly with
   every shorter one (1 when period 2 is not). *)
let history_reach kind =
  let cap = 256 in
  let rec scan p =
    if p > cap || steady_loop_accuracy kind p < 1.0 then p - 1
    else scan (p + 1)
  in
  scan 2

(* Pinned per kind of the ladder: a change to a predictor's geometry or
   history folding shows here as a number. A gshare with h history bits
   reaches h + 1 (gshare-small 8, gshare 15, the tournament's global
   side 15), TAGE its longest history plus one (62), the perceptron one
   short of its 28 bits; ISL-TAGE's loop predictor and the oracle reach
   the scan's cap. *)
let test_history_reach () =
  let pinned =
    Kind.
      [ (Always_taken, 1);
        (Always_not_taken, 1);
        (Bimodal_small, 1);
        (Bimodal, 1);
        (Gshare_small, 9);
        (Gshare, 16);
        (Tournament, 16);
        (Perceptron, 28);
        (Tage, 63);
        (Isl_tage, 256);
        (Perfect, 256)
      ]
  in
  Alcotest.(check (list (pair string int)))
    "longest period learnt perfectly"
    (List.map (fun (kind, reach) -> (Kind.name kind, reach)) pinned)
    (List.map (fun (kind, _) -> (Kind.name kind, history_reach kind)) pinned);
  (* past its reach TAGE misses only the exit: 63 of 64 *)
  Alcotest.(check (float 1e-9)) "tage at period 64" (63. /. 64.)
    (steady_loop_accuracy Kind.Tage 64)

(* Tables hold their fields in bytes: a TAGE entry in 16 bits, a
   perceptron weight in one signed byte. A geometry that does not fit is
   refused when the predictor is made, not truncated in use. *)
let test_table_widths () =
  let refused what f =
    match f () with
    | (_ : Predictor.t) -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "11-bit TAGE tags" (fun () -> Tage.create ~tag_bits:11 ());
  refused "9-bit perceptron weights" (fun () ->
      Perceptron.create ~weight_bits:9 ());
  refused "1-bit TAGE index" (fun () -> Tage.create ~table_bits:1 ());
  ignore (Tage.create ~tag_bits:10 ());
  ignore (Perceptron.create ~weight_bits:8 ())

let test_storage_bits () =
  Alcotest.(check int) "tournament 24KB" (3 * 2 * 32768)
    (Tournament.create ()).Predictor.storage_bits;
  Alcotest.(check bool) "isl biggest" true
    ((Isl_tage.create ()).Predictor.storage_bits
    > (Tournament.create ()).Predictor.storage_bits)

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      match Kind.of_name (Kind.name k) with
      | Some k' -> Alcotest.(check string) "roundtrip" (Kind.name k) (Kind.name k')
      | None -> Alcotest.failf "of_name failed for %s" (Kind.name k))
    Kind.all;
  Alcotest.(check bool) "unknown" true (Kind.of_name "nope" = None)

let test_btb () =
  let btb = Btb.create ~entries:16 () in
  Alcotest.(check int) "cold miss" (-1) (Btb.find btb ~pc:100);
  Btb.update btb ~pc:100 ~target:555;
  Alcotest.(check int) "hit" 555 (Btb.find btb ~pc:100);
  Alcotest.(check int) "stats" 1 (Btb.hits btb);
  Alcotest.(check int) "stats" 1 (Btb.misses btb)

let test_ras () =
  let ras = Ras.create ~entries:4 () in
  Alcotest.(check int) "empty" (-1) (Ras.pop ras);
  Ras.push ras 1;
  Ras.push ras 2;
  Alcotest.(check int) "lifo" 2 (Ras.pop ras);
  Alcotest.(check int) "lifo" 1 (Ras.pop ras);
  (* overflow wraps and loses the deepest entries *)
  List.iter (Ras.push ras) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "depth capped" 4 (Ras.depth ras);
  Alcotest.(check int) "newest wins" 5 (Ras.pop ras);
  let snap = Ras.snapshot ras in
  ignore (Ras.pop ras);
  Ras.restore ras ~from:snap;
  Alcotest.(check int) "restored" 4 (Ras.pop ras)

(* properties *)
let stream_gen =
  QCheck2.Gen.(array_size (int_range 50 400) bool)

let prop_no_crash kind =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s total on random streams" (Kind.name kind))
    ~count:30 stream_gen
    (fun outcomes ->
      let a = accuracy (Kind.create kind) outcomes in
      a >= 0.0 && a <= 1.0)

let prop_bimodal_tracks_bias =
  QCheck2.Test.make ~name:"bimodal accuracy >= bias - slack (iid streams)"
    ~count:30
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 100))
    (fun (seed, pct) ->
      let rng = Bv_workloads.Rng.create ~seed in
      let outcomes =
        Array.init 2000 (fun _ ->
            Bv_workloads.Rng.bernoulli rng (Float.of_int pct /. 100.0))
      in
      let bias =
        let t = Array.fold_left (fun a b -> a + Bool.to_int b) 0 outcomes in
        let r = Float.of_int t /. 2000.0 in
        Float.max r (1.0 -. r)
      in
      accuracy (Bimodal.create ()) outcomes >= bias -. 0.1)

(* ---------------------------------------------- packed TAGE vs reference *)

(* The record-based TAGE the packed one replaced: one mutable record per
   tagged entry, closures over the state, and a full [refold] of every
   folded register on recovery. Kept verbatim as the reference the packed
   layout and its O(tables) recovery are checked against. *)
module Tage_ref = struct
  type t =
    { predict : pc:int -> bool * int array;
      update : int array -> pc:int -> taken:bool -> unit;
      recover : int array -> taken:bool -> unit
    }

  type entry =
    { mutable tag : int;
      mutable ctr : int;  (* 0..7, taken if >= 4 *)
      mutable useful : int  (* 0..3 *)
    }

  type state =
    { base : int array;  (* bimodal, 2-bit *)
      base_mask : int;
      tables : entry array array;
      hist_lens : int array;
      table_mask : int;
      idx_bits : int;  (* log2 (table_mask + 1), hoisted out of [index] *)
      tag_mask : int;
      mutable history : int;
      hmask : int;
      (* Incrementally-maintained folded views of [history], one triple per
         table: the two index folds (idx_bits and idx_bits-1 wide) and the
         tag fold (9 bits). Invariant: f_idx.(t) = fold history len idx_bits
         (etc.) for len = hist_lens.(t). *)
      f_idx : int array;
      f_idx2 : int array;
      f_tag : int array;
      mutable use_alt_on_na : int;  (* 0..15 *)
      mutable update_count : int;
      mutable lfsr : int
    }

  let geometric ~first ~last ~n =
    if n = 1 then [| last |]
    else begin
      let r = Float.of_int last /. Float.of_int first in
      let ratio = r ** (1.0 /. Float.of_int (n - 1)) in
      Array.init n (fun i ->
          let l =
            Float.to_int
              (Float.round (Float.of_int first *. (ratio ** Float.of_int i)))
          in
          max 1 (min last l))
    end

  (* XOR-fold the low [len] bits of [h] down to [bits] bits. *)
  let fold h len bits =
    let mask = (1 lsl bits) - 1 in
    let rec go acc h remaining =
      if remaining <= 0 then acc
      else go (acc lxor (h land mask)) (h lsr bits) (remaining - bits)
    in
    go 0 (h land ((1 lsl len) - 1)) len

  (* Rebuild every folded register from [st.history] (after an arbitrary
     history rewrite, i.e. a mispredict recovery). *)
  let refold st =
    for t = 0 to Array.length st.hist_lens - 1 do
      let len = st.hist_lens.(t) in
      st.f_idx.(t) <- fold st.history len st.idx_bits;
      st.f_idx2.(t) <- fold st.history len (st.idx_bits - 1);
      st.f_tag.(t) <- fold st.history len 9
    done

  (* O(1) update of an XOR-fold when the folded history shifts left by one:
     rotate within [bits], insert the new bit at position 0 and cancel the
     outgoing bit (previously at position len-1) at position len mod bits. *)
  let shift_fold f ~bits ~len ~b ~old_top =
    let mask = (1 lsl bits) - 1 in
    let f = ((f lsl 1) lor (f lsr (bits - 1))) land mask in
    f lxor b lxor (old_top lsl (len mod bits))

  (* Shift a new outcome bit into the history, keeping the folded
     registers in sync incrementally. *)
  let shift_history st taken =
    let h = st.history in
    let b = Bool.to_int taken in
    let bits = st.idx_bits in
    for t = 0 to Array.length st.hist_lens - 1 do
      let len = st.hist_lens.(t) in
      let old_top = (h lsr (len - 1)) land 1 in
      st.f_idx.(t) <- shift_fold st.f_idx.(t) ~bits ~len ~b ~old_top;
      st.f_idx2.(t) <- shift_fold st.f_idx2.(t) ~bits:(bits - 1) ~len ~b ~old_top;
      st.f_tag.(t) <- shift_fold st.f_tag.(t) ~bits:9 ~len ~b ~old_top
    done;
    st.history <- ((h lsl 1) lor b) land st.hmask

  let base_index st pc = Predictor.hash_pc pc land st.base_mask

  let next_lfsr x =
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 7) in
    x lxor (x lsl 17) land max_int

  let create ?(num_tables = 6) ?(table_bits = 11) ?(tag_bits = 9)
      ?(max_history = 62) () =
    let st =
      { base = Array.make (1 lsl 13) 1;
        base_mask = (1 lsl 13) - 1;
        tables =
          Array.init num_tables (fun _ ->
              Array.init (1 lsl table_bits) (fun _ ->
                  { tag = -1; ctr = 4; useful = 0 }));
        hist_lens = geometric ~first:4 ~last:max_history ~n:num_tables;
        table_mask = (1 lsl table_bits) - 1;
        idx_bits = table_bits;
        tag_mask = (1 lsl tag_bits) - 1;
        history = 0;
        hmask = (1 lsl max_history) - 1;
        f_idx = Array.make num_tables 0;
        f_idx2 = Array.make num_tables 0;
        f_tag = Array.make num_tables 0;
        use_alt_on_na = 8;
        update_count = 0;
        lfsr = 0x12345
      }
    in
    let shift h taken = ((h lsl 1) lor Bool.to_int taken) land st.hmask in
    (* meta layout: [| h; pred; provider+1; ppred; alt;
       idx_0..idx_{n-1}; tag_0..tag_{n-1} |]. The per-table indices and
       tags are pure functions of (pc, predict-time history); computing
       them once here and carrying them in meta lets [update] skip every
       fold entirely (it used to rewind [st.history] and re-derive them). *)
    let n = num_tables in
    let predict ~pc ~outcome:_ =
      let h = st.history in
      let meta = Array.make (5 + 2 * n) 0 in
      let hp = Predictor.hash_pc pc in
      let hp31 = Predictor.hash_pc (pc * 31) in
      for t = 0 to n - 1 do
        meta.(5 + t) <-
          (hp lxor st.f_idx.(t) lxor (st.f_idx2.(t) lsl 1)) land st.table_mask;
        meta.(5 + n + t) <-
          (hp31 lxor st.f_tag.(t) lxor (t * 0x5bd1)) land st.tag_mask
      done;
      let base_pred =
        Predictor.counter_taken st.base.(base_index st pc) ~max:3
      in
      (* Longest-match lookup over the cached indices/tags. *)
      let rec find t =
        if t < 0 then -1
        else if st.tables.(t).(meta.(5 + t)).tag = meta.(5 + n + t) then t
        else find (t - 1)
      in
      let provider = find (n - 1) in
      let ppred, alt =
        if provider < 0 then (base_pred, base_pred)
        else begin
          let alt =
            match find (provider - 1) with
            | -1 -> base_pred
            | a -> st.tables.(a).(meta.(5 + a)).ctr >= 4
          in
          (st.tables.(provider).(meta.(5 + provider)).ctr >= 4, alt)
        end
      in
      let pred =
        if provider >= 0 then begin
          let e = st.tables.(provider).(meta.(5 + provider)) in
          (* Weak, never-useful entries are "newly allocated": optionally
             trust the alternate prediction. *)
          if e.useful = 0 && (e.ctr = 3 || e.ctr = 4) && st.use_alt_on_na >= 8
          then alt
          else ppred
        end
        else ppred
      in
      shift_history st pred;
      meta.(0) <- h;
      meta.(1) <- Bool.to_int pred;
      meta.(2) <- provider + 1;
      meta.(3) <- Bool.to_int ppred;
      meta.(4) <- Bool.to_int alt;
      (pred, meta)
    in
    let update meta ~pc ~taken =
      (* Indices/tags for the predict-time history snapshot are cached in
         meta (offsets 5.. and 5+n..); no history rewind needed. *)
      let idx t = meta.(5 + t) in
      let tg t = meta.(5 + n + t) in
      let pred = meta.(1) = 1 in
      let provider = meta.(2) - 1 in
      let ppred = meta.(3) = 1 in
      let alt = meta.(4) = 1 in
      st.update_count <- st.update_count + 1;
      if provider >= 0 then begin
        let e = st.tables.(provider).(idx provider) in
        if e.tag = tg provider then begin
          e.ctr <- Predictor.counter_update e.ctr ~taken ~max:7;
          if ppred <> alt then
            e.useful <-
              Predictor.counter_update e.useful ~taken:(ppred = taken) ~max:3;
          (* Track whether alt would have been the better choice for newly
             allocated entries. *)
          if e.useful = 0 && ppred <> alt then
            st.use_alt_on_na <-
              Predictor.counter_update st.use_alt_on_na ~taken:(alt = taken)
                ~max:15
        end
      end
      else begin
        let i = base_index st pc in
        st.base.(i) <- Predictor.counter_update st.base.(i) ~taken ~max:3
      end;
      (* Allocate on misprediction, in a table longer than the provider. *)
      if pred <> taken && provider < n - 1 then begin
        let start = provider + 1 in
        (* Find candidate entries with useful = 0; pick pseudo-randomly with
           preference for shorter histories. *)
        let candidates = ref [] in
        for t = n - 1 downto start do
          let e = st.tables.(t).(idx t) in
          if e.useful = 0 then candidates := t :: !candidates
        done;
        (match !candidates with
        | [] ->
          (* No room: age the would-be victims. *)
          for t = start to n - 1 do
            let e = st.tables.(t).(idx t) in
            e.useful <- (if e.useful > 0 then e.useful - 1 else 0)
          done
        | c :: rest ->
          st.lfsr <- next_lfsr st.lfsr;
          let chosen =
            match rest with
            | c2 :: _ when st.lfsr land 3 = 0 -> c2
            | _ -> c
          in
          let e = st.tables.(chosen).(idx chosen) in
          e.tag <- tg chosen;
          e.ctr <- (if taken then 4 else 3);
          e.useful <- 0)
      end;
      (* Periodic useful-bit aging. *)
      if st.update_count land 0x3ffff = 0 then
        Array.iter
          (fun tbl -> Array.iter (fun e -> e.useful <- e.useful lsr 1) tbl)
          st.tables
    in
    let recover meta ~taken =
      st.history <- shift meta.(0) taken;
      refold st
    in
    { predict = (fun ~pc -> predict ~pc ~outcome:false); update; recover }

end

(* Reference and packed TAGE of the same geometry, driven in lockstep the
   way the pipeline drives a predictor: predictions run ahead of updates
   by a random depth, and an update that finds a misprediction recovers
   the history and squashes every younger in-flight prediction. Each
   prediction must agree, as must the first [5 + 2n] meta words (history,
   pred, provider, ppred, alt, indices, tags). Returns the first
   disagreement, and the number of updates made. *)
let tage_lockstep ~num_tables ~table_bits ~tag_bits steps =
  let r = Tage_ref.create ~num_tables ~table_bits ~tag_bits () in
  let p = Tage.create ~num_tables ~table_bits ~tag_bits () in
  let words = 5 + (2 * num_tables) in
  let row = Array.make p.Predictor.meta_words 0 in
  let inflight = Queue.create () in
  let error = ref None in
  let updates = ref 0 in
  let retire () =
    let pc, taken, rmeta, pmeta = Queue.pop inflight in
    incr updates;
    r.Tage_ref.update rmeta ~pc ~taken;
    p.Predictor.update_at pmeta 0 ~pc ~taken;
    if rmeta.(1) <> Bool.to_int taken then begin
      r.Tage_ref.recover rmeta ~taken;
      p.Predictor.recover_at pmeta 0 ~taken;
      Queue.clear inflight
    end
  in
  Array.iteri
    (fun i (pc, taken, depth) ->
      if !error = None then begin
        let rpred, rmeta = r.Tage_ref.predict ~pc in
        let ppred = p.Predictor.predict_at row 0 ~pc ~outcome:taken in
        if rpred <> ppred || Array.sub row 0 words <> rmeta then
          error := Some (Printf.sprintf "step %d (pc %d)" i pc);
        Queue.push (pc, taken, rmeta, Array.copy row) inflight;
        while Queue.length inflight > depth do
          retire ()
        done
      end)
    steps;
  (!error, !updates)

let tage_geometries = [| (6, 11, 9); (8, 12, 10); (4, 5, 9) |]

let prop_packed_tage_matches_reference =
  QCheck2.Test.make ~name:"packed tage = record-based reference" ~count:100
    QCheck2.Gen.(
      pair (int_range 0 (Array.length tage_geometries - 1))
        (array_size (int_range 1 3000)
           (triple (int_range 0 63) bool (int_range 0 12))))
    (fun (g, steps) ->
      let num_tables, table_bits, tag_bits = tage_geometries.(g) in
      let steps = Array.map (fun (k, t, d) -> (0x400 + (4 * k), t, d)) steps in
      match tage_lockstep ~num_tables ~table_bits ~tag_bits steps with
      | None, _ -> true
      | Some e, _ -> QCheck2.Test.fail_reportf "diverged at %s" e)

(* Every 2^18 updates the useful bits of every entry are halved: a
   deterministic stream long enough for that, with loop- and
   history-correlated branches so entries earn useful bits first.
   Squashed predictions never update, so the stream needs well over 2^18
   steps; the differences aging makes show up some 100k updates later. *)
let test_packed_tage_aging () =
  let n = 600_000 in
  let rng = Bv_workloads.Rng.create ~seed:2718 in
  let steps =
    Array.init n (fun i ->
        let site = Bv_workloads.Rng.below rng 48 in
        let taken =
          if site < 16 then i mod (site + 3) <> 0
          else if site < 32 then (i / 7) land 1 = 1
          else Bv_workloads.Rng.bernoulli rng 0.7
        in
        (0x400 + (4 * site), taken, Bv_workloads.Rng.below rng 8))
  in
  List.iter
    (fun (num_tables, table_bits, tag_bits) ->
      let what =
        Printf.sprintf "%d tables of 2^%d, %d-bit tags" num_tables table_bits
          tag_bits
      in
      let error, updates = tage_lockstep ~num_tables ~table_bits ~tag_bits steps in
      Alcotest.(check (option string)) what None error;
      Alcotest.(check bool) (what ^ ": aged") true (updates > 1 lsl 18))
    [ (6, 11, 9); (4, 5, 9) ]

let () =
  Alcotest.run "bv_bpred"
    [ ( "primitives",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "static" `Quick test_static;
          Alcotest.test_case "perfect" `Quick test_perfect
        ] );
      ( "learning",
        [ Alcotest.test_case "bimodal bias" `Quick test_bimodal_learns_bias;
          Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
          Alcotest.test_case "bimodal no pattern" `Quick
            test_bimodal_fails_pattern;
          Alcotest.test_case "tournament" `Quick
            test_tournament_beats_components;
          Alcotest.test_case "tage long history" `Slow test_tage_long_history;
          Alcotest.test_case "isl-tage loop" `Slow test_isl_loop_predictor;
          Alcotest.test_case "history recovery" `Quick test_history_recovery;
          Alcotest.test_case "history reach" `Quick test_history_reach;
          Alcotest.test_case "perceptron correlation" `Slow
            test_perceptron_correlation;
          Alcotest.test_case "perceptron saturation" `Slow
            test_perceptron_weight_saturation
        ] );
      ( "metadata",
        [ Alcotest.test_case "storage bits" `Quick test_storage_bits;
          Alcotest.test_case "table widths" `Quick test_table_widths;
          Alcotest.test_case "kind names" `Quick test_kind_roundtrip
        ] );
      ( "btb/ras",
        [ Alcotest.test_case "btb" `Quick test_btb;
          Alcotest.test_case "ras" `Quick test_ras
        ] );
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_packed_tage_matches_reference;
          Alcotest.test_case "useful-bit aging past 2^18 updates" `Quick
            test_packed_tage_aging
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (prop_bimodal_tracks_bias
          :: List.map prop_no_crash
               Kind.[ Bimodal; Gshare; Tournament; Perceptron; Tage; Isl_tage ]) )
    ]
