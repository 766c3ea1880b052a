type t = { addr : Ipv4.t; len : int }

let netmask len = if len = 0 then 0 else 0xFFFF_FFFF lsl (32 - len) land 0xFFFF_FFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length must be in 0..32";
  { addr = Ipv4.of_int (Ipv4.to_int addr land netmask len); len }

let v s len = make (Ipv4.of_string s) len
let addr p = p.addr
let len p = p.len
let default = { addr = Ipv4.zero; len = 0 }
let host a = { addr = a; len = 32 }

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> None
  | Some i ->
    let addr_s = String.sub s 0 i in
    let len_s = String.sub s (i + 1) (String.length s - i - 1) in
    (match (Ipv4.of_string_opt addr_s, int_of_string_opt len_s) with
    | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
    | _, _ -> None)

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.addr) p.len
let pp fmt p = Format.pp_print_string fmt (to_string p)

let compare p q =
  match Ipv4.compare p.addr q.addr with 0 -> Int.compare p.len q.len | c -> c

let equal p q = p.len = q.len && Ipv4.equal p.addr q.addr
let to_key p = (Ipv4.to_int p.addr lsl 6) lor p.len
let of_key k = { addr = Ipv4.of_int (k lsr 6); len = k land 0x3F }

let is_key k =
  let len = k land 0x3F and a = k asr 6 in
  len <= 32 && a >= 0 && a <= 0xFFFF_FFFF && a land netmask len = a

let key_len k = k land 0x3F

(* The addresses agree on the first [key_len kp] bits: both shifted past
   them are equal (a shift by 38 leaves 0 of either). *)
let key_subsumes kp kq =
  let l = key_len kp in
  l <= key_len kq && kp lsr (38 - l) = kq lsr (38 - l)

let key_bit k i = (k lsr (37 - i)) land 1 = 1

let key_common kp kq =
  let x = (kp lxor kq) lsr 6 in
  let rec first_diff i =
    if i >= 32 || (x lsr (31 - i)) land 1 = 1 then i else first_diff (i + 1)
  in
  let l = min (min (key_len kp) (key_len kq)) (first_diff 0) in
  (((kp lsr 6) land netmask l) lsl 6) lor l

let hash p = Hashtbl.hash (to_key p)
let mem a p = Ipv4.to_int a land netmask p.len = Ipv4.to_int p.addr

let subsumes p q =
  p.len <= q.len && Ipv4.to_int q.addr land netmask p.len = Ipv4.to_int p.addr

let overlaps p q = subsumes p q || subsumes q p
let first p = p.addr
let last p = Ipv4.of_int (Ipv4.to_int p.addr lor (lnot (netmask p.len) land 0xFFFF_FFFF))
let size p = 1 lsl (32 - p.len)

let split p =
  if p.len >= 32 then invalid_arg "Prefix.split: cannot split a /32";
  let left = { p with len = p.len + 1 } in
  let right =
    { addr = Ipv4.of_int (Ipv4.to_int p.addr lor (1 lsl (31 - p.len))); len = p.len + 1 }
  in
  (left, right)

let bit p i = Ipv4.bit p.addr i
