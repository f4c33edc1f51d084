type t =
  { tags : int array;
    targets : int array;
    mask : int;
    mutable hits : int;
    mutable misses : int
  }

let create ?(entries = 4096) () =
  { tags = Array.make entries (-1);
    targets = Array.make entries 0;
    mask = entries - 1;
    hits = 0;
    misses = 0
  }

let slot t pc = Predictor.hash_pc pc land t.mask

let find t ~pc =
  let i = slot t pc in
  if t.tags.(i) = pc then begin
    t.hits <- t.hits + 1;
    t.targets.(i)
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

let update t ~pc ~target =
  let i = slot t pc in
  t.tags.(i) <- pc;
  t.targets.(i) <- target

let hits t = t.hits
let misses t = t.misses
