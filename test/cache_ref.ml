(* The stamp-LRU [Sa_cache] that recency-ordered sets replaced, kept
   verbatim (less its name, geometry and JSON accessors) as the
   reference for the differential test in [test_cache]: every way
   carries the stamp of its last access, and a miss fills the first
   invalid way or else evicts the least recently stamped one. *)

open Bv_cache

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t =
  { name : string;
    line_bits : int;
    set_bits : int;
    set_count : int;
    ways : int;
    tags : ints;  (* set * ways, -1 = invalid *)
    lru : ints;  (* last-use stamp *)
    dirty : Bytes.t;  (* '\001' = dirty *)
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let ints n init =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a init;
  a

let create ~name ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then
    invalid_arg (name ^ ": line_bytes must be a power of two");
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg (name ^ ": size not divisible by ways * line");
  let set_count = size_bytes / (ways * line_bytes) in
  if not (is_pow2 set_count) then
    invalid_arg (name ^ ": set count must be a power of two");
  { name;
    line_bits = log2 line_bytes;
    set_bits = log2 set_count;
    set_count;
    ways;
    tags = ints (set_count * ways) (-1);
    lru = ints (set_count * ways) 0;
    dirty = Bytes.make (set_count * ways) '\000';
    clock = 0;
    accesses = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0
  }

(* One pass over [set]: the index of the way holding [tag] if one does,
   otherwise [-1 - v] for the victim [v] — the first invalid way, else the
   first least-recently-used one. Invalid ways rank below every stamp
   ([-1 < 0 <= lru]), and a strict [<] keeps the first of equals. No
   closure, no option: [access] and [probe] allocate nothing. *)
let lookup t set tag =
  let base = set * t.ways in
  let stop = base + t.ways in
  let w = ref base and found = ref (-1) in
  let victim = ref base and victim_rank = ref max_int in
  while !found < 0 && !w < stop do
    let i = !w in
    let tg = t.tags.{i} in
    if tg = tag then found := i
    else begin
      let rank = if tg = -1 then -1 else t.lru.{i} in
      if rank < !victim_rank then begin
        victim := i;
        victim_rank := rank
      end
    end;
    w := i + 1
  done;
  if !found >= 0 then !found else -1 - !victim

let access t ~addr ~write =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_bits in
  let set = line land (t.set_count - 1) in
  let tag = line lsr t.set_bits in
  let i = lookup t set tag in
  if i >= 0 then begin
    t.lru.{i} <- t.clock;
    if write then Bytes.set_uint8 t.dirty i 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let i = -1 - i in
    if t.tags.{i} <> -1 then begin
      t.evictions <- t.evictions + 1;
      if Bytes.get_uint8 t.dirty i = 1 then t.writebacks <- t.writebacks + 1
    end;
    t.tags.{i} <- tag;
    t.lru.{i} <- t.clock;
    Bytes.set_uint8 t.dirty i (Bool.to_int write);
    `Miss
  end

let probe t ~addr =
  let line = addr lsr t.line_bits in
  let set = line land (t.set_count - 1) in
  let tag = line lsr t.set_bits in
  lookup t set tag >= 0

let invalidate_all t =
  Bigarray.Array1.fill t.tags (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

let stats t =
  { Sa_cache.accesses = t.accesses;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks
  }
