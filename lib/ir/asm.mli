(** A textual assembler for the hidden ISA.

    The accepted syntax is the disassembler's output plus a few directives,
    so hand-written kernels and round-tripped dumps share one format:

    {v
    ; comments run to end of line
    .memory 64              ; data size in 8-byte words (optional)
    .data 0 1 0 1 1         ; a segment: base byte address, then words
    .main main              ; entry procedure (defaults to the first)

    proc main
    entry:
      mov   r1, #0
      jmp   head
    head:
      ld    r4, [r2 + 0]    ; ld+ is a speculative (non-faulting) load
      cmp.ne r5, r4, #0
      bnz   r5, then        ; site 3   <- optional static branch id
    else:                   ; the fall-through successor is the next block
      add   r6, r6, #1
    ...
    v}

    Blocks end at the next label; a block whose last instruction is not a
    control transfer falls through to the following block (an explicit
    [jmp] is synthesised, which layout elides again). Conditional control
    flow takes its not-taken/fall-through successor from the next block in
    the file, and [call]s return to it. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val program : string -> Program.t
(** Parse and validate a whole program. A program that parses but that
    {!Validate} rejects raises {!Parse_error} with the first violation:
    at the line of the block it names (the last block of that label),
    or at line 0 if it names none, as for a file with no procedures. *)

val instruction : string -> Bv_isa.Instr.t
(** Parse a single instruction line (no labels/directives). Control-flow
    targets stay symbolic. Raises {!Parse_error}. *)
