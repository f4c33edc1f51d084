(** The memoized experiment DAG: the costly stages of every run path —
    prepare (profile/select/transform) and simulate — are {!node}s whose
    key content-hashes their inputs and the engine's code-format stamp.
    A node is evaluated at most once per store: results persist
    atomically into the [BV_CACHE] directory, so re-runs after a code or
    config change recompute only what changed and interrupted sweeps
    resume from what already landed.

    Cooperation is arbitrated by claim files ([<key>.claim], created
    [O_CREAT|O_EXCL]): the winner computes and publishes, everyone else
    awaits the published value — across forked workers of one process
    and across independent [vanguard_cli] processes pointed at one cache
    directory alike. A store serves one host: a claim whose owner is not
    a live process of this host is broken and the node taken over, so a
    killed sweep never wedges the next one. Node values are pure
    functions of their inputs, so which evaluator computes one never
    changes it. *)

val code_format : int
(** Format stamp mixed into every key. Bump it in three cases only, so
    stale entries miss instead of lying: the compile pipeline's output
    changes, the timing model's output changes, or the {!Runner.artifact}
    / {!Runner.run} payload types change. *)

val wait_budget : unit -> float
(** Seconds an evaluator waits for a node another live process has
    claimed before failing: [BV_DAG_WAIT], default 3600. Read once.
    @raise Invalid_argument naming the variable unless it is a finite
    number >= 0. *)

type t
(** An engine: store directory, in-process memo and hit/miss counters. *)

val create : ?format:int -> ?dir:string -> unit -> t
(** [format] defaults to {!code_format}; [dir] is the persistent store
    (no disk persistence or cross-process cooperation without it). *)

type 'a node

val node : kind:string -> ?label:string -> inputs:'i -> (unit -> 'a) -> 'a node
(** A computation keyed by [kind] and the marshalled fingerprint of
    [inputs], which must hold everything [compute] reads that
    {!code_format} does not cover. [inputs] must be marshal-safe plain
    data, [compute]'s result marshal-safe and deterministic. [label] is
    display-only (default [kind]). *)

val key : t -> 'a node -> string
(** The node's content hash under this engine's format stamp. Stable
    across processes. *)

val eval : t -> 'a node -> 'a
(** Memo hit, store hit, locally computed (claim won) or awaited from a
    concurrent evaluator — whichever comes first. Computed values are
    written tmp-then-rename with a [.meta] sidecar, and every store
    event is appended to [dag.log] for {!explain}. A node file carries
    its payload's length and digest: one that fails the check is a
    miss, logged with the reason, recomputed and overwritten. A value
    that cannot be written (a full disk) is logged and returned
    uncached. *)

type counters =
  { hits : int;  (** memo or store hits *)
    misses : int;  (** evaluated here (claim won) *)
    stolen : int  (** computed concurrently elsewhere, awaited and loaded *)
  }

val counters : t -> counters
(** Totals since [create]: this process's evaluations plus whatever
    {!add_counters} folded in. *)

val add_counters : t -> counters -> unit
(** Fold in the evaluations a forked worker made on this engine's
    behalf. *)

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
(** Every [<key>.node] in the directory, oldest first. A [.meta]
    sidecar without its node is not an entry. *)

type claim =
  { c_key : string;
    c_pid : int;
    c_host : string;
    c_age : float;
    c_stale : bool
        (** its owner is not a live process of this host: no such pid,
            or another host *)
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
