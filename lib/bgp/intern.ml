(* Open addressing with linear probing over two parallel arrays: a
   [Weak.t] of blocks and an [int array] of the hash each slot was
   filled with.  A slot is empty ([empty] hash, never filled), live
   (its block is still reachable) or a tombstone (filled, block cleared
   by the GC).  Slots never go back to empty except in a rebuild, so a
   probe for hash [h] can stop at the first empty slot: every block of
   hash [h] was placed before it.  Lookups read [hashes] first and touch
   the weak array only on a hash match. *)

let empty = -1

type 'a t = {
  mutable blocks : 'a Weak.t;
  mutable hashes : int array;
  mutable bits : int;  (* capacity is [1 lsl bits] *)
  mutable filled : int;  (* slots that are not empty: live + tombstones *)
  min_bits : int;
}

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 1

let alloc t bits =
  t.blocks <- Weak.create (1 lsl bits);
  t.hashes <- Array.make (1 lsl bits) empty;
  t.bits <- bits;
  t.filled <- 0

let create n =
  let bits = bits_for n in
  let t =
    { blocks = Weak.create 0; hashes = [||]; bits; filled = 0; min_bits = bits }
  in
  alloc t bits;
  t

(* Fibonacci hashing: the top [bits] bits of [h] times an odd constant,
   so the slot depends on every bit of the polynomial field hashes. *)
let home t h = (h * 0x1E3779B97F4A7C15) lsr (Sys.int_size - t.bits)
let next t i = (i + 1) land ((1 lsl t.bits) - 1)

let rec candidate t h i =
  let s = t.hashes.(i) in
  if s = h then i else if s = empty then -1 else candidate t h (next t i)

let get t i = Weak.get t.blocks i

let count t =
  let n = ref 0 in
  Array.iteri
    (fun i h -> if h <> empty && Weak.check t.blocks i then incr n)
    t.hashes;
  !n

(* The first slot on [h]'s probe path that is empty or a tombstone. *)
let rec free t i =
  if t.hashes.(i) = empty || not (Weak.check t.blocks i) then i
  else free t (next t i)

let place t h b =
  let i = free t (home t h) in
  if t.hashes.(i) = empty then t.filled <- t.filled + 1;
  t.hashes.(i) <- h;
  Weak.set t.blocks i (Some b)

(* Rebuild without tombstones at the smallest capacity, never below the
   initial one, that holds the live blocks at a load of at most 1/2. *)
let rebuild t =
  let live = count t in
  let bits = ref t.min_bits in
  while live * 2 > 1 lsl !bits do incr bits done;
  let blocks = t.blocks and hashes = t.hashes in
  alloc t !bits;
  Array.iteri
    (fun i h ->
      if h <> empty then
        match Weak.get blocks i with Some b -> place t h b | None -> ())
    hashes

let add t h b =
  if 4 * (t.filled + 1) > 3 lsl t.bits then rebuild t;
  place t h b
