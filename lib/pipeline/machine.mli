(** Cycle-level in-order superscalar timing model.

    The model is functional-first: instructions are executed architecturally
    at fetch, in (speculative) fetch order, on a register file and memory
    with an undo log; the rest of the machine is pure timing. The front end
    follows branch predictions, so fetch genuinely walks wrong paths after a
    misprediction and the work issued there is counted (Figure 14's
    issued-instruction overhead). When a mispredicted branch, return or
    resolve executes, younger instructions are squashed, the speculative
    state is restored from the checkpoint taken at its fetch, and fetch is
    re-steered.

    Key structures (Table 1): a [fetch_buffer]-entry fetch buffer feeding a
    scoreboarded, strictly in-order issue stage (head-of-line blocking:
    issue stops at the first instruction that cannot issue), per-class
    functional units, an MSHR-limited non-blocking data cache, a store
    buffer, the branch predictor + BTB + RAS front end, and the paper's
    Decomposed Branch Buffer for predict/resolve pairs.

    The implementation is split into stage modules over a shared
    {!Machine_state.t} record — {!Frontend} (fetch/predict/steer),
    {!Scoreboard} (in-order issue), {!Backend} (completion/recovery
    dispatch) and {!Spec_state} (checkpoints, undo log, flush) — with
    [run] owning only the cycle loop. This module remains the sole
    public entry point. *)

open Bv_ir

type event = Machine_state.event =
  | Fetched of { cycle : int; seq : int; pc : int; instr : Bv_isa.Instr.t }
  | Issued of { cycle : int; seq : int }
  | Completed of { cycle : int; seq : int; mispredicted : bool }
  | Squashed of { cycle : int; seq : int }
  | Redirected of { cycle : int; after_seq : int; new_pc : int }
      (** pipeline flush: everything younger than [after_seq] died *)

type result =
  { stats : Stats.t;
    hierarchy : Bv_cache.Hierarchy.t;
    config : Config.t;
    finished : bool;  (** reached [Halt] (as opposed to a run limit) *)
    mem_digest : int;
    stores_retired : int;
    arch_digest : int;
        (** comparable with {!Bv_exec.Interp.arch_digest} when [finished] *)
    skipped_cycles : int
        (** the cycles of [stats.cycles] that stall skipping fast-forwarded
            instead of stepping: 0 under [on_cycle], and the same with or
            without [on_event] and [acct]. It counts the host's work, not
            the machine's, so it stays out of {!Stats.t} and
            {!result_to_json}: no golden or report moves with it. *)
  }

val run :
  ?max_cycles:int ->
  ?max_retired:int ->
  ?on_event:(event -> unit) ->
  ?on_cycle:(cycle:int -> stats:Stats.t -> dbb_occupancy:int -> unit) ->
  ?acct:Acct.t ->
  config:Config.t ->
  Layout.image ->
  result
(** Simulate until [Halt] retires or a limit is hit ([max_cycles] defaults
    to 1G, [max_retired] to no limit). [on_event] streams pipeline events
    (fetch/issue/complete/squash/redirect) — see {!Trace} for a renderer
    and {!Perfetto} for a Chrome-trace exporter. [on_cycle] fires once at
    the end of every simulated cycle with the live (mutable — read, don't
    write) counters and the DBB occupancy; {!Sampler.observe} slots in
    directly for interval telemetry. [acct] (create with {!Acct.create}
    on the image's code) turns on cycle accounting: every cycle is
    charged to one CPI-stack component and control instructions are
    attributed per pc; on return the conservation invariant
    {!Acct.check} has been asserted against the cycle count. Accounting
    never perturbs timing — results are bit-identical with it on or
    off.

    A run without [on_cycle] fast-forwards through cycles in which the
    machine provably only does bookkeeping (an empty fetch buffer behind
    a blocked front end, or an operand-blocked issue head with fetch
    also blocked) instead of stepping them. No event fires in such a
    cycle, and [acct] is charged for the whole stretch in closed form,
    so [on_event] and [acct] runs skip too. Attaching [on_cycle] steps
    every cycle; the two paths are byte-identical, so a no-op
    [on_cycle] gives the stepped reference run. *)

(** {2 SMARTS-style interval sampling} *)

type sample_params =
  { sp_period : int;  (** instructions per sampling period *)
    sp_detail : int;  (** measured (detailed) instructions per period *)
    sp_warmup : int  (** detailed warmup instructions before each window *)
  }

val default_sample_params : sample_params
(** period 10k / detail 1k / warmup 300. *)

type sampled =
  { sam_result : result;
        (** Architectural results ([mem_digest], [stores_retired],
            [arch_digest], [finished]) are exact — identical to a full
            run's. [stats] covers only the detailed stretches; use
            [sam_estimate] for whole-run timing. *)
    sam_estimate : Smarts.estimate
  }

val run_sampled :
  ?max_cycles:int ->
  ?params:sample_params ->
  config:Config.t ->
  Bv_ir.Layout.image ->
  sampled
(** Interval-sampled simulation: per period, [sp_warmup] instructions of
    detailed warmup, then a measured window of [sp_detail] instructions
    costed through pipeline drain, then functional fast-forward
    ({!Ffwd}) over the rest of the period with predictor, BTB, RAS, DBB
    and caches still being warmed. Setting [sp_detail >= sp_period]
    degenerates to an exact full detailed run (one window). Detailed
    stretches are never observed, so they always skip stalls as an
    unobserved {!run} does. *)

val result_to_json :
  ?acct:Acct.t -> ?sampled:Smarts.estimate -> result -> Bv_obs.Json.t
(** Configuration summary, {!Stats.to_json} and cache-hierarchy stats of a
    finished run; pass the run's [acct] to include its [cpi_stack] /
    [top_branches] sections, or a sampled run's estimate to include the
    ["sampled"] confidence-interval section. *)
