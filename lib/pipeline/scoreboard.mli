(** Issue stage: in-order issue from the fetch-buffer head with
    head-of-line blocking.

    Up to [width] instructions issue per cycle, gated on operand
    readiness (the register scoreboard), functional-unit slots, and
    memory structural resources (MSHRs, store buffer). Stall causes are
    classified into the [Stats] head-stall counters, and per-site
    condition-wait (ASPCB) is measured at issue. When runahead is
    enabled, a fully-stalled cycle walks the fetch buffer's memory
    entries ([fbuf_mem]) and starts fills for up to two ready addresses
    that miss in L1; only a started fill caps its load's latency at
    issue. *)

val issue : Machine_state.t -> unit

val readiness : Machine_state.t -> Machine_state.static_info -> int
(** Max [ready] cycle over an instruction's padded use slots (0 when it
    reads no register) — the earliest cycle every operand can be
    available. Used by the fetch paths to fold newly enqueued memory
    entries into [sweep_bound]. *)
