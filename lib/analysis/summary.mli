(** Bottom-up interprocedural procedure summaries.

    For every procedure the engine computes, in reverse topological
    order of {!Bv_ir.Callgraph} SCCs (callees before callers, with
    fixpoint iteration inside recursive components):

    - the {e register mod set}: every register the procedure — or
      anything it transitively calls — may write. Registers are global
      across calls (the hidden ISA has no save/restore convention), so
      this is exactly the havoc set a caller-side analysis needs at a
      call;
    - the {e register use set}: a conservative superset of the registers
      it may read;
    - {e load/store footprints}: interval regions (the {!Alias}
      wrap-guarded domain, expressed in the procedure's own entry
      frame) covering every address it may access, or unbounded when an
      address escapes the domain. Callee regions are rebased through the
      caller's register facts at each call site. Inside a recursive SCC
      a footprint that is still growing after a few rounds is widened to
      unbounded so the fixpoint terminates; the mod/use sets live in a
      finite lattice and always converge exactly;
    - a {e purity class} derived from the footprints.

    Summaries feed {!Alias.analyze}'s [call_mod] hook, the
    {!Speculation} window checks, the {!Costmodel}/[Advisor]
    profitability pipeline and the transforms' [~summaries] mode. *)

open Bv_isa
open Bv_ir

module Regset = Regset
(** The bitset {!Bv_isa.Regset}; [Liveness.Regset] is the same module. *)

type purity =
  | Pure  (** no loads, no stores — a function of its register inputs *)
  | Read_only  (** loads but provably no stores *)
  | Writes_bounded  (** stores confined to the listed footprint regions *)
  | Writes_unknown  (** at least one store with an unresolvable address *)

type footprint = Alias.address list option
(** Normalized interval regions (sorted, coalesced, no [Unknown]
    members); [None] means unbounded. [Some []] means provably no
    access. *)

type t =
  { name : Label.t;
    mod_regs : Regset.t;
    use_regs : Regset.t;
    loads : footprint;
    stores : footprint;
    recursive : bool  (** member of a recursive SCC (self-calls included) *)
  }

type env

val compute : Program.t -> env
(** Summarize every procedure of the program. *)

val graph : env -> Callgraph.t

val find : env -> Label.t -> t option

val procs : env -> t list
(** All summaries, in the program's procedure order. *)

val purity : t -> purity

val store_free : t -> bool
(** [purity] is [Pure] or [Read_only]. *)

val scratch_clean : t -> pool:Reg.t list -> bool
(** The procedure neither reads nor writes any register of [pool] —
    safe to call while the pool holds a speculative window's renamed
    values. *)

val call_mod : env -> Label.t -> Reg.t list option
(** The mod set of the named procedure as {!Alias.analyze}'s [call_mod]
    hook expects it; [None] for procedures outside the environment. *)

val purity_name : purity -> string

val pp : Format.formatter -> t -> unit

val to_json : env -> Bv_obs.Json.t
(** Full per-procedure dump (the [summaries] subcommand's payload). *)

val stats_json : env -> Bv_obs.Json.t
(** Compact aggregate: procedure/SCC counts and the purity histogram —
    the additive [summaries] field the JSON emitters carry. *)
