(** Linearisation of a program into a flat code image.

    Blocks are emitted in procedure/layout order. A terminator whose
    fall-through successor is the next block in layout order needs no
    explicit [jmp]; otherwise one is appended. Instruction addresses are
    [pc * 4] bytes (fixed-width encodings), which is what the I$ model and
    the static-code-size metric (PISCS) use. *)

open Bv_isa

type image =
  { code : Instr.t array;
    labels : (Label.t, int) Hashtbl.t;
        (** block labels and procedure names -> pc *)
    targets : int array;
        (** pc -> the pc its label names, resolved once at layout; -1 for
            an instruction without a target *)
    entry : int;  (** pc of the main procedure's entry block *)
    program : Program.t
  }

val program : Program.t -> image
(** Validates with {!Validate.check_exn}, then lays out. *)

val static_bytes : image -> int
(** Code image size in bytes. *)

val resolve : image -> Label.t -> int
(** Label -> pc, for lookups by name. Raises [Not_found]. Executors read
    a control instruction's target from [targets] instead. *)

val pp_disassembly : Format.formatter -> image -> unit
