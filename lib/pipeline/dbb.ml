(* Struct-of-arrays storage: the DBB sits on the decomposed hot path
   (one allocate per predict, one claim + one free per resolve), so the
   slots are parallel arrays and the live set is tracked by counters —
   no slot records, no order list to cons/filter, no closures in
   snapshot/restore. A slot is empty iff its id is 0; ids are unique and
   strictly increasing, so "newest unclaimed" is the unclaimed live slot
   with the greatest id (the buffer is small enough that the O(entries)
   scan is cheaper than maintaining any order structure). *)
type t =
  { slot_id : int array;  (* 0 = empty, else unique allocation id *)
    slot_claimed : int array;  (* 0 / 1 *)
    slot_pc : int array;
    slot_taken : int array;  (* 0 / 1 *)
    meta_words : int;
    meta : int array;
        (* one predictor meta row per slot, slot [i]'s at [i * meta_words];
           stale when empty *)
    mutable live : int;
    mutable next : int;  (* ring allocation pointer *)
    mutable alloc_id : int
  }

(* A snapshot records which allocation occupied each slot and whether it
   was claimed. Restoring must never resurrect an entry freed since the
   snapshot (an older resolve may legitimately have completed in
   between), so restoration is an intersection keyed by allocation id:
   - same id still present: revert its claimed flag;
   - different/new id in the slot: allocated after the snapshot — drop it;
   - slot now empty: freed since — stays empty. *)
type snapshot =
  { snap_id : int array;
    snap_claimed : int array;
    mutable snap_next : int
  }

let create ~entries ~meta_words =
  { slot_id = Array.make entries 0;
    slot_claimed = Array.make entries 0;
    slot_pc = Array.make entries 0;
    slot_taken = Array.make entries 0;
    meta_words;
    meta = Array.make (entries * meta_words) 0;
    live = 0;
    next = 0;
    alloc_id = 0
  }

let capacity t = Array.length t.slot_id
let occupancy t = t.live
let is_full t = t.live = Array.length t.slot_id

let allocate t ~pc =
  if is_full t then -1
  else begin
    let n = Array.length t.slot_id in
    let idx = ref t.next in
    while t.slot_id.(!idx) <> 0 do
      idx := (!idx + 1) mod n
    done;
    let idx = !idx in
    t.alloc_id <- t.alloc_id + 1;
    t.slot_id.(idx) <- t.alloc_id;
    t.slot_claimed.(idx) <- 0;
    t.slot_pc.(idx) <- pc;
    t.slot_taken.(idx) <- 0;
    t.live <- t.live + 1;
    t.next <- (idx + 1) mod n;
    idx
  end

let claim_newest t =
  let best = ref (-1) and best_id = ref 0 in
  for i = 0 to Array.length t.slot_id - 1 do
    if t.slot_id.(i) > !best_id && t.slot_claimed.(i) = 0 then begin
      best := i;
      best_id := t.slot_id.(i)
    end
  done;
  if !best >= 0 then t.slot_claimed.(!best) <- 1;
  !best

let slot_pc t idx = t.slot_pc.(idx)
let meta t = t.meta
let[@inline] meta_row t idx = idx * t.meta_words
let slot_taken t idx = t.slot_taken.(idx) = 1
let set_taken t idx taken = t.slot_taken.(idx) <- Bool.to_int taken

let free t idx =
  if t.slot_id.(idx) <> 0 then begin
    t.slot_id.(idx) <- 0;
    t.live <- t.live - 1
  end

let new_snapshot t =
  let n = Array.length t.slot_id in
  { snap_id = Array.make n 0; snap_claimed = Array.make n 0; snap_next = 0 }

(* Plain int stores: [Array.blit] into an old array runs [caml_modify]
   per word. *)
let snapshot t ~into =
  for i = 0 to Array.length t.slot_id - 1 do
    into.snap_id.(i) <- t.slot_id.(i);
    into.snap_claimed.(i) <- t.slot_claimed.(i)
  done;
  into.snap_next <- t.next

let restore t snap =
  let live = ref 0 in
  for i = 0 to Array.length t.slot_id - 1 do
    if t.slot_id.(i) <> 0 then
      if t.slot_id.(i) = snap.snap_id.(i) then begin
        t.slot_claimed.(i) <- snap.snap_claimed.(i);
        incr live
      end
      else
        (* allocated after the snapshot — wrong path, drop *)
        t.slot_id.(i) <- 0
  done;
  t.live <- !live;
  t.next <- snap.snap_next
