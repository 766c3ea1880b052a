type t = int

let make asn tag =
  if asn < 0 || asn > 0xFFFF || tag < 0 || tag > 0xFFFF then
    invalid_arg "Community.make: components must fit in 16 bits";
  (asn lsl 16) lor tag

let of_int32_bits n = n land 0xFFFF_FFFF
let to_int t = t
let asn t = t lsr 16
let tag t = t land 0xFFFF
let no_export = of_int32_bits 0xFFFF_FF01
let compare = Int.compare
let equal = Int.equal
let to_string t = Printf.sprintf "%d:%d" (asn t) (tag t)
let pp fmt t = Format.pp_print_string fmt (to_string t)
