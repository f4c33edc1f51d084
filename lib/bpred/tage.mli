(** TAGE (TAgged GEometric history length) direction predictor, after
    Seznec & Michaud. A bimodal base table plus [num_tables] partially
    tagged components indexed with geometrically increasing history
    lengths. The longest matching component provides the prediction; a
    "use alt on newly allocated" counter arbitrates weak providers.

    Simplification vs. the paper's 64 KB ISL-TAGE: global history is capped
    at 62 bits (one OCaml int), so history lengths top out there — ample for
    the synthetic workloads' pattern lengths. *)

val create :
  ?num_tables:int ->
  ?table_bits:int ->
  ?tag_bits:int ->
  ?max_history:int ->
  unit ->
  Predictor.t
(** Defaults: 6 tagged tables of [2^11] entries, 9-bit tags, histories
    geometric from 4 to [max_history] (default 62). An entry packs its
    tag, counter and useful bits into 16 bits, so [tag_bits] above 10 (or
    [table_bits] below 2) raises [Invalid_argument]. *)
