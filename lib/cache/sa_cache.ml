type stats =
  { accesses : int;
    misses : int;
    evictions : int;
    writebacks : int
  }

(* Per-line columns live outside the OCaml heap ([Bigarray]), where the
   major GC never scans them: as [int array]s, a 4 MB L3's tags, stamps
   and flags were 196,608 words that every major collection marked,
   built again for every simulation. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Each set keeps its ways in recency order, the most recently used
   first, and its valid ways are a prefix of it: [valid.{set}] long. A
   hit moves its way to the front, a miss fills at the front, and a full
   set evicts its last way, the least recently used one. That is the
   victim stamp-LRU picks, since its stamps are unique per access; which
   physical way an invalid fill lands in is not observable.

   A way is one word, [tag lsl 1 lor dirty]. The shift is exact while
   every tag fits in 62 bits: a tag is the address shifted right
   ([lsr]) by the line and set bits, so that holds unless both are 0,
   which [create] rejects. *)
type t =
  { name : string;
    line_bits : int;
    set_bits : int;
    set_count : int;
    ways : int;
    lines : ints;  (* set * ways, each set most recently used first *)
    valid : ints;  (* per set: the length of its valid prefix *)
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
  if line_bytes = 1 && set_count = 1 then
    invalid_arg (name ^ ": 1-byte lines need more than one set");
  { name;
    line_bits = log2 line_bytes;
    set_bits = log2 set_count;
    set_count;
    ways;
    lines = ints (set_count * ways) 0;
    valid = ints set_count 0;
    accesses = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0
  }

let name t = t.name
let line_bytes t = 1 lsl t.line_bits
let sets t = t.set_count

(* The index of the way of [set] holding [key], a tag shifted left by
   one, or -1: a scan of the valid prefix that stops at the hit. No
   closure, no option: [access] and [probe] allocate nothing. *)
let find t set key =
  let base = set * t.ways in
  let stop = base + t.valid.{set} in
  let i = ref base in
  while !i < stop && t.lines.{!i} land -2 <> key do
    incr i
  done;
  if !i < stop then !i else -1

(* Move ways [base] .. [i - 1] one way back, over way [i], and put [w]
   in way [base], the front of the set. *)
let move_to_front t ~base i w =
  for j = i downto base + 1 do
    t.lines.{j} <- t.lines.{j - 1}
  done;
  t.lines.{base} <- w

let access t ~addr ~write =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_bits in
  let set = line land (t.set_count - 1) in
  let key = (line lsr t.set_bits) lsl 1 in
  let base = set * t.ways in
  let i = find t set key in
  if i >= 0 then begin
    move_to_front t ~base i (t.lines.{i} lor Bool.to_int write);
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let n = t.valid.{set} in
    (* the way the fill overwrites: the last, evicted, in a full set,
       else the first invalid one *)
    let over =
      if n = t.ways then begin
        let last = base + n - 1 in
        t.evictions <- t.evictions + 1;
        if t.lines.{last} land 1 = 1 then t.writebacks <- t.writebacks + 1;
        last
      end
      else begin
        t.valid.{set} <- n + 1;
        base + n
      end
    in
    move_to_front t ~base over (key lor Bool.to_int write);
    `Miss
  end

let probe t ~addr =
  let line = addr lsr t.line_bits in
  let set = line land (t.set_count - 1) in
  find t set ((line lsr t.set_bits) lsl 1) >= 0

let invalidate_all t = Bigarray.Array1.fill t.valid 0

let stats t =
  { accesses = t.accesses;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks
  }

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let stats_miss_rate (s : stats) =
  if s.accesses = 0 then 0.0
  else Float.of_int s.misses /. Float.of_int s.accesses

let miss_rate t = stats_miss_rate (stats t)

let stats_to_json ~name ~size_bytes ~ways ~line_bytes (s : stats) =
  let open Bv_obs.Json in
  Obj
    [ ("name", String name);
      ("sets", Int (size_bytes / (ways * line_bytes)));
      ("ways", Int ways);
      ("line_bytes", Int line_bytes);
      ("size_bytes", Int size_bytes);
      ("accesses", Int s.accesses);
      ("misses", Int s.misses);
      ("evictions", Int s.evictions);
      ("writebacks", Int s.writebacks);
      ("miss_rate", float (stats_miss_rate s))
    ]

let to_json t =
  let line_bytes = 1 lsl t.line_bits in
  stats_to_json ~name:t.name
    ~size_bytes:(t.set_count * t.ways * line_bytes)
    ~ways:t.ways ~line_bytes (stats t)
