(** The memoized experiment DAG: every stage of every run path —
    prepare (profile/select/transform), simulate, prove, advise,
    experiment rows — is a {!node} whose key content-hashes its inputs,
    its dependencies' keys and the engine's code-format stamp. A node is
    evaluated at most once per store: results persist atomically into the
    [BV_CACHE] directory, so re-runs after a code or config change
    recompute only the invalidated cone and interrupted sweeps resume
    from what already landed.

    Cooperation is arbitrated by claim files ([<key>.claim], created
    [O_CREAT|O_EXCL]): the winner computes and publishes, everyone else
    awaits the published value — across forked workers of one process
    ({!eval_list}) and across independent [vanguard_cli] processes
    pointed at one cache directory alike. A claim whose owner died is
    broken and the node taken over, so a killed sweep never wedges the
    next one.

    Determinism: node values are pure functions of their inputs and
    results are reassembled by index, so a [jobs:n] evaluation is
    byte-identical to [jobs:1]. *)

val code_format : int
(** Format stamp mixed into every key. Bump it whenever the meaning of
    any cached stage changes — pipeline semantics, node payload types,
    experiment row formulas — so stale entries miss instead of lying. *)

val wait_budget : unit -> float
(** Seconds an evaluator waits for a node another live process has
    claimed before failing: [BV_DAG_WAIT], default 3600. Read once.
    @raise Invalid_argument naming the variable unless it is a finite
    number >= 0. *)

val claim_ttl : unit -> float
(** Age in seconds past which a claim whose owner cannot be probed (it
    is on another host) is broken: [BV_DAG_CLAIM_TTL], default 900. Read
    and checked like {!wait_budget}. *)

type t
(** An engine: store directory, in-process memo and hit/miss counters. *)

val create : ?format:int -> ?dir:string -> unit -> t
(** [format] defaults to {!code_format}; [dir] is the persistent store
    (no disk persistence or cross-process cooperation without it). *)

type 'a node

val node :
  kind:string ->
  ?label:string ->
  ?deps:string list ->
  inputs:'i ->
  (unit -> 'a) ->
  'a node
(** A computation keyed by [kind], the marshalled fingerprint of
    [inputs] and the [deps] key list (dependency keys chain, so a
    changed input invalidates exactly its downstream cone). [inputs]
    must be marshal-safe plain data, [compute]'s result marshal-safe and
    deterministic. [label] is display-only (default [kind]). *)

val key : t -> 'a node -> string
(** The node's content hash under this engine's format stamp. Stable
    across processes; pass it as a dependency to downstream nodes. *)

val eval : t -> 'a node -> 'a
(** Memo hit, store hit, locally computed (claim won) or awaited from a
    concurrent evaluator — whichever comes first. Computed values are
    written tmp-then-rename with a [.meta] sidecar, and every store
    event is appended to [dag.log] for {!explain}. A node file carries
    its payload's length and digest: one that fails the check is a
    miss, logged with the reason, recomputed and overwritten. A value
    that cannot be written (a full disk) is logged and returned
    uncached. *)

val eval_list : ?jobs:int -> t -> 'a node list -> 'a list
(** Evaluate ready nodes cooperatively, results in input order. With
    [jobs > 1] the pending nodes fan out over forked workers that
    work-steal: every worker scans all pending nodes from a different
    offset and the claim files arbitrate, so an imbalanced tail never
    idles a worker and concurrent processes on the same store share the
    sweep. Equivalent to [List.map (eval t)] observationally. *)

type counters =
  { hits : int;  (** memo or store hits *)
    misses : int;  (** evaluated here (claim won) *)
    stolen : int  (** computed concurrently elsewhere, awaited and loaded *)
  }

val counters : t -> counters
(** Totals since [create] (the parent process's view of a sweep). *)

val counters_json : t -> Bv_obs.Json.t
(** [{"hits": h, "misses": m, "stolen": s, "nodes": h+m+s}] — attached
    to every [--json] emitter's report. *)

(** {1 Store maintenance} — operate directly on a cache directory. *)

type entry =
  { e_key : string;
    e_kind : string;  (** ["?"] when the meta sidecar is missing *)
    e_label : string;
    e_bytes : int;
    e_age : float  (** seconds since last store hit (mtime is touched) *)
  }

val entries : string -> entry list
(** Every persisted node in the directory, including legacy
    [*.bench] artifacts (kind ["legacy"]), oldest first. *)

type claim =
  { c_key : string;
    c_pid : int;
    c_host : string;
    c_age : float;
    c_stale : bool  (** owner known dead, or cross-host claim past TTL *)
  }

val claims : string -> claim list

val status_json : string -> Bv_obs.Json.t

type gc_report =
  { gcr_examined : int;  (** entries present before pruning *)
    gcr_bytes : int;  (** store payload bytes before pruning *)
    gcr_removed : entry list;
    gcr_removed_bytes : int;
    gcr_claims_broken : int;  (** stale claims swept *)
    gcr_dry_run : bool
  }

val gc :
  ?max_age:float -> ?max_bytes:int -> dry_run:bool -> string -> gc_report
(** Prune entries older than [max_age] seconds, then oldest-first until
    the store fits in [max_bytes]; stale claims are always swept and an
    oversized [dag.log] trimmed. With [dry_run] the report says what
    would go but nothing is touched. No bound given means no entry is
    pruned (stale-claim sweep still runs). *)

val gc_report_to_json : gc_report -> Bv_obs.Json.t

type explanation =
  { x_key : string;
    x_kind : string;
    x_label : string;
    x_format : int;
    x_ocaml : string;
    x_inputs : string;  (** fingerprint of the node's inputs *)
    x_deps : string list;
    x_created_at : string;
    x_pid : int;  (** evaluating process *)
    x_compute_seconds : float;
    x_bytes : int;
    x_age : float;
    x_events : string list  (** this key's [dag.log] provenance lines *)
  }

val explain : string -> string -> (explanation, string) result
(** [explain dir key_prefix]: the hash inputs and hit/miss provenance of
    the unique stored node matching [key_prefix]. [Error] when unknown
    or ambiguous. *)

val explanation_to_json : explanation -> Bv_obs.Json.t
