let create ?(table_bits = 15) ?history_bits () =
  let history_bits = Option.value history_bits ~default:table_bits in
  let size = 1 lsl table_bits in
  let mask = size - 1 in
  let hmask = (1 lsl history_bits) - 1 in
  let bim = Predictor.counters size in
  let gsh = Predictor.counters size in
  let chooser = Predictor.counters size in
  (* chooser counts towards gshare on taken-side *)
  let history = ref 0 in
  let bim_index pc = Predictor.hash_pc pc land mask in
  let gsh_index pc h = (Predictor.hash_pc pc lxor h) land mask in
  let shift h taken = ((h lsl 1) lor Bool.to_int taken) land hmask in
  let predicts table i =
    Predictor.counter_taken (Bytes.get_uint8 table i) ~max:3
  in
  (* meta row: [| h; bimodal prediction; gshare prediction |] *)
  Predictor.make
    ~name:(Printf.sprintf "tournament-3x%db" table_bits)
    ~storage_bits:(3 * 2 * size) ~meta_words:3
    ~predict_at:(fun m o ~pc ~outcome:_ ->
      let h = !history in
      let bp = predicts bim (bim_index pc) in
      let gp = predicts gsh (gsh_index pc h) in
      let use_gshare = predicts chooser (bim_index pc) in
      let pred = if use_gshare then gp else bp in
      history := shift h pred;
      m.(o) <- h;
      m.(o + 1) <- Bool.to_int bp;
      m.(o + 2) <- Bool.to_int gp;
      pred)
    ~update_at:(fun m o ~pc ~taken ->
      let h = m.(o) in
      let bp = m.(o + 1) = 1 and gp = m.(o + 2) = 1 in
      let bi = bim_index pc and gi = gsh_index pc h in
      Predictor.train bim bi ~taken ~max:3;
      Predictor.train gsh gi ~taken ~max:3;
      (* Train the chooser only when the components disagree. *)
      if bp <> gp then Predictor.train chooser bi ~taken:(gp = taken) ~max:3)
    ~recover_at:(fun m o ~taken -> history := shift m.(o) taken)
