type loop_entry =
  { mutable tag : int;
    mutable past_count : int;  (* trip count of the last completed run *)
    mutable current : int;  (* takens seen in the current run *)
    mutable confidence : int  (* consecutive confirmations, 0..7 *)
  }

let confidence_threshold = 3

(* meta row: the TAGE row ([tw] words) followed by [| final_pred;
   loop_hit; tage_pred; sc_index |]. *)

let create ?(num_tables = 8) ?(table_bits = 12) ?(loop_entries = 64) () =
  let tage = Tage.create ~num_tables ~table_bits ~tag_bits:10 () in
  let tw = tage.Predictor.meta_words in
  let loop_mask = loop_entries - 1 in
  let loops =
    Array.init loop_entries (fun _ ->
        { tag = -1; past_count = 0; current = 0; confidence = 0 })
  in
  let sc_bits = 10 in
  let sc_mask = (1 lsl sc_bits) - 1 in
  let sc = Bytes.make (1 lsl sc_bits) '\016' in
  (* 5-bit counters centred at 16 *)
  let loop_index pc = Predictor.hash_pc pc land loop_mask in
  let loop_tag pc = (Predictor.hash_pc (pc * 17) lsr 8) land 0x3fff in
  (* The loop predictor models "taken past_count times, then one not-taken
     exit" loops (backward loop branches): 1 / 0 for a confident taken /
     not-taken prediction, -1 when it has none. *)
  let loop_lookup pc =
    let e = loops.(loop_index pc) in
    if e.tag = loop_tag pc && e.confidence >= confidence_threshold
       && e.past_count > 0
    then Bool.to_int (e.current < e.past_count)
    else -1
  in
  let loop_update pc ~taken =
    let i = loop_index pc in
    let e = loops.(i) in
    if e.tag <> loop_tag pc then begin
      (* Re-allocate only for taken branches (loop-shaped candidates). *)
      if taken then begin
        e.tag <- loop_tag pc;
        e.past_count <- 0;
        e.current <- 1;
        e.confidence <- 0
      end
    end
    else if taken then e.current <- e.current + 1
    else begin
      (* Run ended: confirm or learn the trip count. *)
      if e.past_count = e.current && e.past_count > 0 then
        e.confidence <- (if e.confidence < 7 then e.confidence + 1 else 7)
      else begin
        e.past_count <- e.current;
        e.confidence <- 0
      end;
      e.current <- 0
    end
  in
  let sc_index pc pred =
    (Predictor.hash_pc (pc * 7) lxor Bool.to_int pred) land sc_mask
  in
  let predict_at m o ~pc ~outcome =
    let tage_pred = tage.Predictor.predict_at m o ~pc ~outcome in
    let loop = loop_lookup pc in
    let pred =
      if loop >= 0 then loop = 1
      else
        (* Statistical corrector: revert TAGE when strongly contradicted. *)
        let s = Bytes.get_uint8 sc (sc_index pc tage_pred) in
        if s <= 2 then not tage_pred else tage_pred
    in
    if pred <> tage_pred then
      (* Keep the speculative history consistent with the final direction. *)
      tage.Predictor.recover_at m o ~taken:pred;
    m.(o + tw) <- Bool.to_int pred;
    m.(o + tw + 1) <- Bool.to_int (loop >= 0);
    m.(o + tw + 2) <- Bool.to_int tage_pred;
    m.(o + tw + 3) <- sc_index pc tage_pred;
    pred
  in
  let update_at m o ~pc ~taken =
    tage.Predictor.update_at m o ~pc ~taken;
    loop_update pc ~taken;
    let tage_pred = m.(o + tw + 2) = 1 in
    Predictor.train sc m.(o + tw + 3) ~taken:(tage_pred = taken) ~max:31
  in
  Predictor.make
    ~name:(Printf.sprintf "isl-tage-%dx%db" num_tables table_bits)
    ~storage_bits:
      (tage.Predictor.storage_bits
      + (loop_entries * (14 + 16 + 16 + 3))
      + (5 * (sc_mask + 1)))
    ~meta_words:(tw + 4) ~predict_at ~update_at
    ~recover_at:tage.Predictor.recover_at
