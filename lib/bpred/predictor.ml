type meta = int array

type t =
  { name : string;
    storage_bits : int;
    meta_words : int;
    predict_at : int array -> int -> pc:int -> outcome:bool -> bool;
    update_at : int array -> int -> pc:int -> taken:bool -> unit;
    recover_at : int array -> int -> taken:bool -> unit;
    predict : pc:int -> outcome:bool -> bool * meta;
    update : meta -> pc:int -> taken:bool -> unit;
    recover : meta -> taken:bool -> unit
  }

let make ~name ~storage_bits ~meta_words ~predict_at ~update_at ~recover_at =
  { name;
    storage_bits;
    meta_words;
    predict_at;
    update_at;
    recover_at;
    predict =
      (fun ~pc ~outcome ->
        let meta = Array.make meta_words 0 in
        let pred = predict_at meta 0 ~pc ~outcome in
        (pred, meta));
    update = (fun meta ~pc ~taken -> update_at meta 0 ~pc ~taken);
    recover = (fun meta ~taken -> recover_at meta 0 ~taken)
  }

let counter_update c ~taken ~max =
  if taken then if c < max then c + 1 else max
  else if c > 0 then c - 1
  else 0

let counter_taken c ~max = 2 * c > max

let counters size = Bytes.make size '\001'

let[@inline] train table i ~taken ~max =
  Bytes.set_uint8 table i (counter_update (Bytes.get_uint8 table i) ~taken ~max)

(* Multiplicative mixing; instruction addresses are pc*4, so fold the low
   bits in before multiplying. *)
let hash_pc pc =
  let x = pc lxor (pc lsr 13) in
  (x * 0x9E3779B1) land max_int

let no_update _ _ ~pc:_ ~taken:_ = ()
let no_recover _ _ ~taken:_ = ()

let always taken =
  make
    ~name:(if taken then "always-taken" else "always-not-taken")
    ~storage_bits:0 ~meta_words:0
    ~predict_at:(fun _ _ ~pc:_ ~outcome:_ -> taken)
    ~update_at:no_update ~recover_at:no_recover

let perfect =
  make ~name:"perfect" ~storage_bits:0 ~meta_words:0
    ~predict_at:(fun _ _ ~pc:_ ~outcome -> outcome)
    ~update_at:no_update ~recover_at:no_recover
