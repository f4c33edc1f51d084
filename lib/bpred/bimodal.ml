let create ?(table_bits = 14) () =
  let size = 1 lsl table_bits in
  let mask = size - 1 in
  let table = Predictor.counters size in
  let index pc = Predictor.hash_pc pc land mask in
  Predictor.make
    ~name:(Printf.sprintf "bimodal-%db" table_bits)
    ~storage_bits:(2 * size) ~meta_words:0
    ~predict_at:(fun _ _ ~pc ~outcome:_ ->
      Predictor.counter_taken (Bytes.get_uint8 table (index pc)) ~max:3)
    ~update_at:(fun _ _ ~pc ~taken ->
      Predictor.train table (index pc) ~taken ~max:3)
    ~recover_at:Predictor.no_recover
