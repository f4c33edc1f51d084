(** Aggregation helpers for experiment results. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 elements give 1.0. *)

val geomean_speedup_pct : float list -> float
(** Geometric mean of speedups given as percentages: [geomean (1+s/100)]
    mapped back to a percentage. *)

val mean : float list -> float
val max_or : float -> float list -> float

val median : float list -> float
(** Median (midpoint of the two middle elements for even lengths); 0.0 on
    the empty list. [bvbench] takes its set-up time, per-op round times
    and host-speed readings as medians of repetitions: robust to the odd
    slow repetition on a shared host. *)
