(** Machine configuration (the paper's Table 1).

    The front end is five stages: fetched instructions become eligible to
    issue [front_stages] cycles after fetch, and a misprediction redirect
    re-fills the front end from scratch. Functional-unit counts follow the
    paper's "up to 2 LD/ST, 2 INT/SIMD-Permute, 4 SIMD/FP" mix, scaled a
    little with width. *)

open Bv_bpred
open Bv_cache

type t =
  { width : int;  (** fetch/decode/issue width *)
    fetch_buffer : int;  (** 32 entries *)
    front_stages : int;  (** 5 *)
    int_units : int;
    fp_units : int;
    mem_units : int;
    branch_units : int;
    alu_latency : int;
    mul_latency : int;
    fpu_latency : int;
    taken_bubble : int;  (** fetch bubble after any taken control transfer *)
    btb_miss_penalty : int;
        (** extra bubble when a taken prediction lacks a BTB target *)
    runahead : bool;
        (** runahead-style prefetch (off in the paper's machine, §5.1).
            On every cycle in which nothing issues and the fetch buffer
            is not empty, whatever blocked issue (a front-end stall
            too), a sweep walks the buffer's loads and stores in order,
            the issue head among them, and starts a fill for up to two
            whose address operands are ready, whose line is not in L1
            and for which an MSHR is free (a store's line is fetched as
            a read). A load whose fill was started pays at issue the
            fill's remaining time, if that is below its own access
            latency, but at least the L1 latency. *)
    dbb_entries : int;  (** 16 *)
    mshrs : int;  (** 64-entry miss buffer *)
    store_buffer : int;
    cache : Hierarchy.config;
    predictor : Kind.t;
    btb_entries : int;
    ras_entries : int
  }

val make : ?predictor:Kind.t -> ?cache:Hierarchy.config -> width:int -> unit -> t
(** Width must be 2, 4 or 8; FU counts are chosen per width. *)

val two_wide : t
val four_wide : t
val eight_wide : t

val name : t -> string
val pp : Format.formatter -> t -> unit
(** Renders the configuration as a table (the paper's Table 1). *)
