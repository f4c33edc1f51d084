type t = string

let equal = String.equal
let compare = String.compare
let pp = Format.pp_print_string

let counter = ref 0

let fresh ~prefix =
  incr counter;
  Printf.sprintf "%s$%d" prefix !counter

let reset_fresh_counter () = counter := 0

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = String.equal
  let hash = Hashtbl.hash
end)
