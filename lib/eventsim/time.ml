type t = int

let zero = 0
let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000
let minutes n = sec (60 * n)
let hours n = minutes (60 * n)
let days n = hours (24 * n)
let to_sec t = float_of_int t /. 1e6
let pp fmt t = Format.fprintf fmt "%.3fs" (to_sec t)
