(* The pc columns live outside the OCaml heap, where the GC never scans
   them. *)
type pcs = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t =
  { tags : pcs;
    targets : pcs;
    mask : int;
    mutable hits : int;
    mutable misses : int
  }

let pcs entries init =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout entries in
  Bigarray.Array1.fill a init;
  a

let create ?(entries = 4096) () =
  { tags = pcs entries (-1);
    targets = pcs entries 0;
    mask = entries - 1;
    hits = 0;
    misses = 0
  }

let slot t pc = Predictor.hash_pc pc land t.mask

let find t ~pc =
  let i = slot t pc in
  if t.tags.{i} = pc then begin
    t.hits <- t.hits + 1;
    t.targets.{i}
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

let update t ~pc ~target =
  let i = slot t pc in
  t.tags.{i} <- pc;
  t.targets.{i} <- target

let hits t = t.hits
let misses t = t.misses
