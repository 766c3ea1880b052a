exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)

type out = { mutable buf : Bytes.t; mutable fill : int; spill : out -> unit }

let out ~spill buf = { buf; fill = 0; spill }
let buffer o = o.buf
let length o = o.fill

let set_buffer o b =
  o.buf <- b;
  o.fill <- 0

let room o n =
  if o.fill + n > Bytes.length o.buf then begin
    o.spill o;
    if o.fill + n > Bytes.length o.buf then
      invalid_arg "Snapshot.Codec: a write does not fit the buffer"
  end

let reserve o n =
  room o n;
  let p = o.fill in
  o.fill <- p + n;
  p

let w8 o v =
  room o 1;
  Bytes.unsafe_set o.buf o.fill (Char.unsafe_chr (v land 0xff));
  o.fill <- o.fill + 1

let set8 b i v = Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff))

let w16 o v =
  let p = reserve o 2 in
  set8 o.buf p (v lsr 8);
  set8 o.buf (p + 1) v

let w32 o v =
  let p = reserve o 4 in
  let b = o.buf in
  set8 b p (v lsr 24);
  set8 b (p + 1) (v lsr 16);
  set8 b (p + 2) (v lsr 8);
  set8 b (p + 3) v

(* The 8 big-endian bytes of the 64-bit two's complement of [v]: the top
   byte takes the sign, as [Int64.of_int] extends it. *)
let wint o v =
  let p = reserve o 8 in
  let b = o.buf in
  set8 b p (v asr 56);
  set8 b (p + 1) (v lsr 48);
  set8 b (p + 2) (v lsr 40);
  set8 b (p + 3) (v lsr 32);
  set8 b (p + 4) (v lsr 24);
  set8 b (p + 5) (v lsr 16);
  set8 b (p + 6) (v lsr 8);
  set8 b (p + 7) v

let w64 o v =
  let p = reserve o 8 in
  for i = 0 to 7 do
    set8 o.buf (p + i) (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))))
  done

let wbool o v = w8 o (if v then 1 else 0)

let wsub o s off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    if o.fill = Bytes.length o.buf then o.spill o;
    let n = min !len (Bytes.length o.buf - o.fill) in
    Bytes.blit_string s !off o.buf o.fill n;
    o.fill <- o.fill + n;
    off := !off + n;
    len := !len - n
  done

let wstr o s =
  w32 o (String.length s);
  wsub o s 0 (String.length s)

let wlist o f l =
  w32 o (List.length l);
  List.iter (f o) l

let warray o f a =
  w32 o (Array.length a);
  Array.iter (f o) a

let wopt o f = function
  | None -> w8 o 0
  | Some x ->
    w8 o 1;
    f o x

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }
let pos r = r.pos
let skip r n = r.pos <- r.pos + n

let need r n =
  if n < 0 || r.pos + n > String.length r.data then
    bad "truncated at byte %d (need %d more of %d)" r.pos n (String.length r.data)

let get8 r i = Char.code (String.unsafe_get r.data i)

let r8 r =
  need r 1;
  let v = get8 r r.pos in
  r.pos <- r.pos + 1;
  v

let r16 r =
  need r 2;
  let p = r.pos in
  r.pos <- p + 2;
  (get8 r p lsl 8) lor get8 r (p + 1)

let r32 r =
  need r 4;
  let p = r.pos in
  r.pos <- p + 4;
  (get8 r p lsl 24) lor (get8 r (p + 1) lsl 16) lor (get8 r (p + 2) lsl 8)
  lor get8 r (p + 3)

(* The inverse of [wint]: a word whose top two bits differ is no int's
   sign extension, and is refused rather than wrapped. *)
let rint r =
  need r 8;
  let p = r.pos in
  let top = get8 r p lsr 6 in
  if top = 1 || top = 2 then bad "64-bit word at %d is outside the int range" p;
  r.pos <- p + 8;
  let v = ref 0 in
  for i = p to p + 7 do
    v := (!v lsl 8) lor get8 r i
  done;
  !v

let r64 r =
  need r 8;
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (r8 r))
  done;
  !v

let rbool r =
  match r8 r with
  | 0 -> false
  | 1 -> true
  | v -> bad "bad boolean byte %d at %d" v (r.pos - 1)

let rstr r =
  let n = r32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let[@tail_mod_cons] rec rlist_items r f n =
  if n = 0 then []
  else
    let x = f r in
    x :: rlist_items r f (n - 1)

let rlist r f =
  let n = r32 r in
  (* Sanity-bound the count before allocating: each element consumes at
     least one byte, so a count beyond the remaining input is garbage. *)
  need r n;
  rlist_items r f n

let rarray r f =
  let n = r32 r in
  need r n;
  Array.init n (fun _ -> f r)

let ropt r f =
  match r8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> bad "bad option byte %d at %d" v (r.pos - 1)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

(* Slicing-by-8: [crc_tables] holds eight 256-entry tables; table [k]
   advances a CRC over a byte followed by [k] zero bytes, so one step
   folds eight input bytes with eight independent lookups instead of a
   chain of eight dependent ones. Built on first use: a program that
   never checkpoints allocates nothing here at start-up, which would
   otherwise shift when its major GC clears the weak intern tables, and
   with that the words its feed allocates. *)
let crc_tables = lazy (
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t)

let crc32 ?(crc = 0) ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Snapshot.Codec.crc32: range outside the string";
  let t = Lazy.force crc_tables in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  let last8 = off + len - 8 in
  while !i <= last8 do
    let p = !i in
    let lo =
      !c lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
               lor (byte (p + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte (p + 5))
      lxor Array.unsafe_get t (256 + byte (p + 6))
      lxor Array.unsafe_get t (byte (p + 7));
    i := p + 8
  done;
  for j = !i to off + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
