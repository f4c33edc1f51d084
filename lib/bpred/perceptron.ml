let create ?(table_bits = 9) ?(history_bits = 28) ?(weight_bits = 8) () =
  if weight_bits < 1 || weight_bits > 8 then
    invalid_arg "Perceptron.create: weight_bits must be in 1..8";
  let size = 1 lsl table_bits in
  let mask = size - 1 in
  let hmask = (1 lsl history_bits) - 1 in
  let wmax = (1 lsl (weight_bits - 1)) - 1 in
  let wmin = -wmax - 1 in
  let clamp (v : int) =
    if v > wmax then wmax else if v < wmin then wmin else v
  in
  (* Perceptron [p]'s weights are the signed bytes from [p * stride]: the
     bias weight, then one weight per history bit. *)
  let stride = history_bits + 1 in
  let weights = Bytes.make (size * stride) '\000' in
  let history = ref 0 in
  let threshold =
    Float.to_int (Float.round ((1.93 *. Float.of_int history_bits) +. 14.0))
  in
  let row pc = (Predictor.hash_pc pc land mask) * stride in
  let dot w h =
    let sum = ref (Bytes.get_int8 weights w) in
    for b = 0 to history_bits - 1 do
      let x = if (h lsr b) land 1 = 1 then 1 else -1 in
      sum := !sum + (x * Bytes.get_int8 weights (w + b + 1))
    done;
    !sum
  in
  let bump i t =
    Bytes.set_int8 weights i (clamp (Bytes.get_int8 weights i + t))
  in
  let shift h taken = ((h lsl 1) lor Bool.to_int taken) land hmask in
  (* meta row: [| h; dot product |] *)
  Predictor.make
    ~name:(Printf.sprintf "perceptron-%dx%dh" size history_bits)
    ~storage_bits:(size * (history_bits + 1) * weight_bits)
    ~meta_words:2
    ~predict_at:(fun m o ~pc ~outcome:_ ->
      let h = !history in
      let sum = dot (row pc) h in
      let pred = sum >= 0 in
      history := shift h pred;
      m.(o) <- h;
      m.(o + 1) <- sum;
      pred)
    ~update_at:(fun m o ~pc ~taken ->
      let h = m.(o) and sum = m.(o + 1) in
      let pred = sum >= 0 in
      if pred <> taken || abs sum <= threshold then begin
        let w = row pc in
        let t = if taken then 1 else -1 in
        bump w t;
        for b = 0 to history_bits - 1 do
          let x = if (h lsr b) land 1 = 1 then 1 else -1 in
          bump (w + b + 1) (t * x)
        done
      end)
    ~recover_at:(fun m o ~taken -> history := shift m.(o) taken)
