let create ?(table_bits = 15) ?(history_bits = 15) () =
  let size = 1 lsl table_bits in
  let mask = size - 1 in
  let hmask = (1 lsl history_bits) - 1 in
  let table = Predictor.counters size in
  let history = ref 0 in
  let index pc h = (Predictor.hash_pc pc lxor h) land mask in
  let shift h taken = ((h lsl 1) lor Bool.to_int taken) land hmask in
  (* meta row: [| h |] *)
  Predictor.make
    ~name:(Printf.sprintf "gshare-%db-h%d" table_bits history_bits)
    ~storage_bits:(2 * size) ~meta_words:1
    ~predict_at:(fun m o ~pc ~outcome:_ ->
      let h = !history in
      let pred =
        Predictor.counter_taken (Bytes.get_uint8 table (index pc h)) ~max:3
      in
      history := shift h pred;
      m.(o) <- h;
      pred)
    ~update_at:(fun m o ~pc ~taken ->
      Predictor.train table (index pc m.(o)) ~taken ~max:3)
    ~recover_at:(fun m o ~taken -> history := shift m.(o) taken)
