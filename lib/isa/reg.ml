type t = int

let count = 64

let make i =
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Reg.make: %d out of range [0, %d)" i count);
  i

external index : t -> int = "%identity"
let equal = Int.equal
let compare = Int.compare
let hash r = r
let pp ppf r = Format.fprintf ppf "r%d" r
let to_string r = Printf.sprintf "r%d" r
let all = List.init count (fun i -> i)
