type meta = int array

type t =
  { name : string;
    storage_bits : int;
    predict : pc:int -> outcome:bool -> bool * meta;
    update : meta -> pc:int -> taken:bool -> unit;
    recover : meta -> taken:bool -> unit
  }

let counter_update c ~taken ~max =
  if taken then if c < max then c + 1 else max
  else if c > 0 then c - 1
  else 0

let counter_taken c ~max = 2 * c > max

(* Multiplicative mixing; instruction addresses are pc*4, so fold the low
   bits in before multiplying. *)
let hash_pc pc =
  let x = pc lxor (pc lsr 13) in
  (x * 0x9E3779B1) land max_int

let always taken =
  { name = (if taken then "always-taken" else "always-not-taken");
    storage_bits = 0;
    predict = (fun ~pc:_ ~outcome:_ -> (taken, [||]));
    update = (fun _ ~pc:_ ~taken:_ -> ());
    recover = (fun _ ~taken:_ -> ())
  }

let perfect =
  { name = "perfect";
    storage_bits = 0;
    predict = (fun ~pc:_ ~outcome -> (outcome, [||]));
    update = (fun _ ~pc:_ ~taken:_ -> ());
    recover = (fun _ ~taken:_ -> ())
  }
