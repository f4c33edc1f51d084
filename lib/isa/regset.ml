(* [lo] holds r0..r31 (bit i is r<i>), [hi] holds r32..r63 (bit i is
   r<32+i>). Both stay within 32 bits, so no operation below can reach
   the sign bit of a 63-bit int. *)
type t = { lo : int; hi : int }

let empty = { lo = 0; hi = 0 }
let all = { lo = 0xffff_ffff; hi = 0xffff_ffff }
let is_empty s = s.lo = 0 && s.hi = 0
let equal a b = a.lo = b.lo && a.hi = b.hi

let mem r s =
  let i = Reg.index r in
  if i < 32 then s.lo land (1 lsl i) <> 0
  else s.hi land (1 lsl (i - 32)) <> 0

let add r s =
  let i = Reg.index r in
  if i < 32 then
    let lo = s.lo lor (1 lsl i) in
    if lo = s.lo then s else { s with lo }
  else
    let hi = s.hi lor (1 lsl (i - 32)) in
    if hi = s.hi then s else { s with hi }

let singleton r = add r empty

(* A result equal to an operand is returned as that operand. *)
let make a b lo hi =
  if lo = a.lo && hi = a.hi then a
  else if lo = b.lo && hi = b.hi then b
  else if lo = 0 && hi = 0 then empty
  else { lo; hi }

let union a b = make a b (a.lo lor b.lo) (a.hi lor b.hi)
let inter a b = make a b (a.lo land b.lo) (a.hi land b.hi)
let diff a b = make a empty (a.lo land lnot b.lo) (a.hi land lnot b.hi)
let of_list l = List.fold_left (fun s r -> add r s) empty l

let fold f s acc =
  let rec word w i acc =
    if w = 0 then acc
    else
      word (w lsr 1) (i + 1)
        (if w land 1 <> 0 then f (Reg.make i) acc else acc)
  in
  word s.hi 32 (word s.lo 0 acc)

let iter f s = fold (fun r () -> f r) s ()

let elements s =
  (* bits high to low, so that consing leaves the list ascending *)
  let rec word w base i acc =
    if i < 0 then acc
    else
      word w base (i - 1)
        (if w land (1 lsl i) <> 0 then Reg.make (base + i) :: acc else acc)
  in
  word s.lo 0 31 (word s.hi 32 31 [])
