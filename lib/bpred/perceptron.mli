(** Perceptron branch predictor (Jiménez & Lin, HPCA 2001): per-PC weight
    vectors over the global history; predicts the sign of the dot product
    and trains weights when wrong or insufficiently confident. Captures
    linearly separable correlations that counter tables cannot, at long
    effective history lengths — a natural rung between the tournament
    baseline and TAGE in the §5.3 ladder. *)

val create :
  ?table_bits:int -> ?history_bits:int -> ?weight_bits:int -> unit ->
  Predictor.t
(** Defaults: [2^9] perceptrons over 28 bits of history with 8-bit
    weights (≈16 KB). The training threshold uses the standard
    [1.93 * h + 14]. Each weight is one signed byte, so [weight_bits]
    must lie in 1..8 ([Invalid_argument] otherwise). *)
