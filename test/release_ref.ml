(* The release-time calendar that [Machine_state.Release]'s min-heap
   replaced, kept as the reference for the differential test in
   [test_hotpath]. [slots.(c land mask)] counts entries released at
   cycle [c]; [horizon] must bound the largest schedulable latency. *)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

type t =
  { slots : int array;
    mask : int;
    mutable occupancy : int;
    mutable cursor : int  (* next cycle to drain *)
  }

let create ~horizon =
  let cap = pow2_at_least (horizon + 2) 1 in
  { slots = Array.make cap 0; mask = cap - 1; occupancy = 0; cursor = 0 }

let occupancy t = t.occupancy

let schedule t ~at =
  assert (at >= t.cursor && at - t.cursor <= t.mask);
  t.slots.(at land t.mask) <- t.slots.(at land t.mask) + 1;
  t.occupancy <- t.occupancy + 1

(* After [drain t ~now], [occupancy] counts exactly the entries with
   release cycle > now. A drain walks one slot per cycle while any entry
   is occupied, and jumps the cursor to [now + 1] once none is. *)
let drain t ~now =
  while t.occupancy > 0 && t.cursor <= now do
    let i = t.cursor land t.mask in
    t.occupancy <- t.occupancy - t.slots.(i);
    t.slots.(i) <- 0;
    t.cursor <- t.cursor + 1
  done;
  if t.cursor <= now then t.cursor <- now + 1

(* The earliest release cycle of an occupied entry, [max_int] if none.
   Scans from the cursor, so call it only after a [drain]. *)
let next_release t =
  if t.occupancy = 0 then max_int
  else begin
    let c = ref t.cursor in
    while t.slots.(!c land t.mask) = 0 do
      incr c
    done;
    !c
  end
