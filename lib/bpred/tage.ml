(* Tagged entries are packed 16 bits each:
     (tag + 1) lsl 5 | ctr lsl 2 | useful
   with a 3-bit counter (taken if >= 4) and a 2-bit useful counter, so a
   tag has at most 10 bits. An empty entry has tag field 0, which no real
   tag (>= 0) matches. Table [t]'s entry [i] is entry
   [(t lsl idx_bits) lor i] of [entries]. *)
let empty_entry = 4 lsl 2
let max_tag_bits = 10

let[@inline] entry_tag e = e lsr 5
let[@inline] entry_ctr e = (e lsr 2) land 7
let[@inline] entry_useful e = e land 3
let[@inline] pack ~tag1 ~ctr ~useful = (tag1 lsl 5) lor (ctr lsl 2) lor useful

type state =
  { base : Bytes.t;  (* bimodal, 2-bit *)
    base_mask : int;
    n : int;  (* tagged tables *)
    entries : Bytes.t;  (* 16-bit entries, native byte order *)
    hist_lens : int array;
    table_mask : int;
    idx_bits : int;  (* log2 (table_mask + 1) *)
    tag_mask : int;
    mutable history : int;
    hmask : int;
    (* Incrementally-maintained folded views of [history], three per
       table: folds.(t) = fold history len idx_bits, folds.(n + t) = fold
       history len (idx_bits - 1) and folds.(2n + t) = fold history len 9,
       for len = hist_lens.(t). *)
    folds : int array;
    (* Where each fold register cancels its outgoing history bit:
       out_pos.(r) = len mod bits for register [r]'s [len] and [bits]. *)
    out_pos : int array;
    mutable use_alt_on_na : int;  (* 0..15 *)
    mutable update_count : int;
    mutable lfsr : int
  }

(* Meta row layout, [n] tagged tables:
     0      history before the predict
     1      final prediction
     2      provider table + 1 (0: base)
     3      provider prediction
     4      alternate prediction
     5      .. 5+n-1   per-table indices
     5+n    .. 5+2n-1  per-table tags
     5+2n   .. 5+5n-1  [folds] before the predict
   The indices and tags are pure functions of (pc, predict-time history),
   so [update] reads them instead of re-deriving any fold, and the saved
   folds make [recover] one [shift_fold] per register. *)
let meta_words n = 5 + (5 * n)

let[@inline] get_entry st k = Bytes.get_uint16_ne st.entries (2 * k)
let[@inline] set_entry st k e = Bytes.set_uint16_ne st.entries (2 * k) e

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

(* O(1) update of an XOR-fold when the folded history shifts left by one:
   rotate within [bits], insert the new bit at position 0 and cancel the
   outgoing bit (previously at position len-1) at position [out], which is
   len mod bits. *)
let[@inline] shift_fold f ~bits ~out ~b ~old_top =
  let mask = (1 lsl bits) - 1 in
  let f = ((f lsl 1) lor (f lsr (bits - 1))) land mask in
  f lxor b lxor (old_top lsl out)

(* Make [taken] the newest bit of history [h], whose folds are
   [src.(off)] .. [src.(off + 3n - 1)] in the layout of [st.folds]: the
   live registers for a speculative shift, a meta row's saved copy for a
   recovery. Reads each source fold before writing its register, so
   [src == st.folds] is fine. *)
let shift_in st src off h taken =
  let n = st.n in
  let b = Bool.to_int taken in
  let bits = st.idx_bits in
  let f = st.folds and out = st.out_pos in
  for t = 0 to n - 1 do
    let old_top = (h lsr (st.hist_lens.(t) - 1)) land 1 in
    f.(t) <- shift_fold src.(off + t) ~bits ~out:out.(t) ~b ~old_top;
    f.(n + t) <-
      shift_fold src.(off + n + t) ~bits:(bits - 1) ~out:out.(n + t) ~b
        ~old_top;
    f.((2 * n) + t) <-
      shift_fold src.(off + (2 * n) + t) ~bits:9 ~out:out.((2 * n) + t) ~b
        ~old_top
  done;
  st.history <- ((h lsl 1) lor b) land st.hmask

let base_index st pc = Predictor.hash_pc pc land st.base_mask

let next_lfsr x =
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17) land max_int

(* Entry slot of table [t] for the prediction whose row starts at [o]. *)
let[@inline] slot st m o t = (t lsl st.idx_bits) lor m.(o + 5 + t)

(* Does table [t] hold the row's tag for its index? *)
let[@inline] hits st m o t =
  entry_tag (get_entry st (slot st m o t)) = m.(o + 5 + st.n + t) + 1

(* Longest matching table at or below [t]; -1 when none. *)
let rec find st m o t =
  if t < 0 then -1 else if hits st m o t then t else find st m o (t - 1)

let predict_at st m o ~pc ~outcome:_ =
  let n = st.n in
  let h = st.history in
  let hp = Predictor.hash_pc pc in
  let hp31 = Predictor.hash_pc (pc * 31) in
  let f = st.folds in
  (* The folds are copied by plain stores: [Array.blit] into a row of
     the (major-heap) meta slab would run [caml_modify] per word. *)
  for t = 0 to n - 1 do
    let fi = f.(t) and fi2 = f.(n + t) and ft = f.((2 * n) + t) in
    m.(o + 5 + t) <- (hp lxor fi lxor (fi2 lsl 1)) land st.table_mask;
    m.(o + 5 + n + t) <- (hp31 lxor ft lxor (t * 0x5bd1)) land st.tag_mask;
    m.(o + 5 + (2 * n) + t) <- fi;
    m.(o + 5 + (3 * n) + t) <- fi2;
    m.(o + 5 + (4 * n) + t) <- ft
  done;
  let base_pred =
    Predictor.counter_taken (Bytes.get_uint8 st.base (base_index st pc)) ~max:3
  in
  let provider = find st m o (n - 1) in
  let alt =
    if provider < 0 then base_pred
    else begin
      let a = find st m o (provider - 1) in
      if a < 0 then base_pred else entry_ctr (get_entry st (slot st m o a)) >= 4
    end
  in
  let ppred =
    if provider < 0 then base_pred
    else entry_ctr (get_entry st (slot st m o provider)) >= 4
  in
  let pred =
    if provider < 0 then ppred
    else begin
      let e = get_entry st (slot st m o provider) in
      let ctr = entry_ctr e in
      (* Weak, never-useful entries are "newly allocated": optionally
         trust the alternate prediction. *)
      if entry_useful e = 0 && (ctr = 3 || ctr = 4) && st.use_alt_on_na >= 8
      then alt
      else ppred
    end
  in
  shift_in st f 0 h pred;
  m.(o) <- h;
  m.(o + 1) <- Bool.to_int pred;
  m.(o + 2) <- provider + 1;
  m.(o + 3) <- Bool.to_int ppred;
  m.(o + 4) <- Bool.to_int alt;
  pred

(* On a misprediction, allocate in a table longer than the provider:
   pick among the tables [start..n-1] whose entry has useful = 0 — the
   shortest, or (one time in four) the second shortest — and when there
   is none, age them all instead. *)
let allocate st m o ~start ~taken =
  let n = st.n in
  let first = ref (-1) and second = ref (-1) in
  for t = start to n - 1 do
    if entry_useful (get_entry st (slot st m o t)) = 0 then
      if !first < 0 then first := t else if !second < 0 then second := t
  done;
  if !first < 0 then
    (* every useful field is >= 1 here, so the decrement cannot borrow *)
    for t = start to n - 1 do
      let k = slot st m o t in
      set_entry st k (get_entry st k - 1)
    done
  else begin
    st.lfsr <- next_lfsr st.lfsr;
    let chosen =
      if !second >= 0 && st.lfsr land 3 = 0 then !second else !first
    in
    set_entry st (slot st m o chosen)
      (pack ~tag1:(m.(o + 5 + n + chosen) + 1)
         ~ctr:(if taken then 4 else 3)
         ~useful:0)
  end

(* Periodic useful-bit aging: halve every useful counter. *)
let age st =
  for k = 0 to (Bytes.length st.entries / 2) - 1 do
    let x = get_entry st k in
    set_entry st k ((x land lnot 3) lor ((x land 3) lsr 1))
  done

let update_at st m o ~pc ~taken =
  let n = st.n in
  let pred = m.(o + 1) = 1 in
  let provider = m.(o + 2) - 1 in
  let ppred = m.(o + 3) = 1 in
  let alt = m.(o + 4) = 1 in
  st.update_count <- st.update_count + 1;
  if provider >= 0 then begin
    if hits st m o provider then begin
      let k = slot st m o provider in
      let e = get_entry st k in
      let ctr = Predictor.counter_update (entry_ctr e) ~taken ~max:7 in
      let useful =
        if ppred <> alt then
          Predictor.counter_update (entry_useful e) ~taken:(ppred = taken)
            ~max:3
        else entry_useful e
      in
      set_entry st k (pack ~tag1:(entry_tag e) ~ctr ~useful);
      (* Track whether alt would have been the better choice for newly
         allocated entries. *)
      if useful = 0 && ppred <> alt then
        st.use_alt_on_na <-
          Predictor.counter_update st.use_alt_on_na ~taken:(alt = taken)
            ~max:15
    end
  end
  else begin
    Predictor.train st.base (base_index st pc) ~taken ~max:3
  end;
  if pred <> taken && provider < n - 1 then
    allocate st m o ~start:(provider + 1) ~taken;
  if st.update_count land 0x3ffff = 0 then age st

let recover_at st m o ~taken = shift_in st m (o + 5 + (2 * st.n)) m.(o) taken

let create ?(num_tables = 6) ?(table_bits = 11) ?(tag_bits = 9)
    ?(max_history = 62) () =
  if tag_bits > max_tag_bits then
    invalid_arg
      (Printf.sprintf "Tage.create: tag_bits %d > %d, the widest a 16-bit \
                       entry holds" tag_bits max_tag_bits);
  if table_bits < 2 then invalid_arg "Tage.create: table_bits must be >= 2";
  let n = num_tables in
  let hist_lens = geometric ~first:4 ~last:max_history ~n in
  let fold_bits = [| table_bits; table_bits - 1; 9 |] in
  let st =
    { base = Predictor.counters (1 lsl 13);
      base_mask = (1 lsl 13) - 1;
      n;
      entries = Bytes.create (2 * (n lsl table_bits));
      hist_lens;
      table_mask = (1 lsl table_bits) - 1;
      idx_bits = table_bits;
      tag_mask = (1 lsl tag_bits) - 1;
      history = 0;
      hmask = (1 lsl max_history) - 1;
      folds = Array.make (3 * n) 0;
      out_pos =
        Array.init (3 * n) (fun r -> hist_lens.(r mod n) mod fold_bits.(r / n));
      use_alt_on_na = 8;
      update_count = 0;
      lfsr = 0x12345
    }
  in
  for k = 0 to (n lsl table_bits) - 1 do
    set_entry st k empty_entry
  done;
  Predictor.make
    ~name:(Printf.sprintf "tage-%dx%db" num_tables table_bits)
    ~storage_bits:
      ((2 * (st.base_mask + 1))
      + (n * (st.table_mask + 1) * (tag_bits + 3 + 2)))
    ~meta_words:(meta_words n)
    ~predict_at:(fun m o ~pc ~outcome -> predict_at st m o ~pc ~outcome)
    ~update_at:(fun m o ~pc ~taken -> update_at st m o ~pc ~taken)
    ~recover_at:(fun m o ~taken -> recover_at st m o ~taken)
