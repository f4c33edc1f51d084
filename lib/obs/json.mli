(** Dependency-free JSON values, emitter and parser.

    The telemetry layer's interchange format: {!Stats.to_json}-style
    converters across the tree build values of this type and the CLI /
    [bvbench] serialise them. The emitter always produces valid JSON:
    non-finite floats ([nan], [infinity]) have no JSON encoding and are
    emitted as [null]; strings are escaped per RFC 8259 (control
    characters as [\u00XX]). The parser accepts anything the emitter
    produces (round-trip) plus ordinary interchange JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float : float -> t
(** [Float f], except non-finite [f] collapses to [Null] eagerly so
    structural equality matches what a round-trip produces. *)

val schema_version : int
(** Version stamp emitted as ["schema_version"] by every top-level
    document in the tree (stats, experiment tables, bench artifacts).
    Bumped when a document's shape changes: 1 = pre-cycle-accounting,
    2 = [cpi_stack] / [top_branches] / per-window [cpi] sections. *)

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with 2-space
    indentation (same value, just whitespace). *)

val to_channel : ?indent:bool -> out_channel -> t -> unit
(** Writes the value followed by a newline: the bytes of
    [to_string ?indent v ^ "\n"], in chunks of about 64 KiB as the
    value is rendered. *)

val of_string : string -> (t, string) result
(** Recursive-descent parse of a complete JSON document (trailing
    whitespace allowed). Numbers without [.], [e] or [E] that fit in an
    OCaml [int] parse as [Int]; everything else numeric as [Float].
    Errors report a byte offset. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] on missing key or non-object. *)

val to_list : t -> t list
(** [List l -> l], anything else -> []. *)
