(** A weak hash-consing table: the one intern table behind {!Route}'s
    attribute blocks and {!As_path}'s paths.

    Blocks are found by their hash and compared by the caller, field by
    field, against the value it is about to build; only a miss builds
    the block and {!add}s it. A lookup allocates nothing but the option
    [Weak.get] returns for a slot whose hash matches. The GC may clear
    any block that nothing else references; its slot becomes a
    tombstone that probes continue past and that {!add} may reuse.

    The table is open-addressed with linear probing, a [Weak.t] of
    blocks beside an [int array] of their hashes. It is rebuilt when
    its filled slots (live and tombstones) would pass 3/4 of the
    capacity, to the smallest power of two, never below the initial
    size, that holds the live blocks at a load of at most 1/2. Not
    thread-safe: use one table per domain.

    A lookup for hash [h] is a loop:
    {[
      let rec find t h i =
        let i = Intern.candidate t h i in
        if i < 0 then None
        else
          match Intern.get t i with
          | Some b as hit when matches b -> hit
          | Some _ | None -> find t h (Intern.next t i)
      in
      find t h (Intern.home t h)
    ]} *)

type 'a t

val create : int -> 'a t
(** A table of at least the given number of slots (a power of two). *)

val home : 'a t -> int -> int
(** The slot where the probe for a hash starts. Hashes are
    non-negative. *)

val candidate : 'a t -> int -> int -> int
(** [candidate t h i]: the first slot from [i] on, in probe order,
    filled with a block of hash [h] (live or since cleared), or [-1]
    when an empty slot comes first: no block of hash [h] is in the
    table. *)

val next : 'a t -> int -> int
(** The slot after the given one in probe order. *)

val get : 'a t -> int -> 'a option
(** The block in a slot, [None] once the GC has cleared it. *)

val add : 'a t -> int -> 'a -> unit
(** [add t h b] places [b] under hash [h]. The caller has looked [b]
    up and missed, so no live block equal to [b] is in the table. *)

val count : 'a t -> int
(** Live blocks: a scan of the whole table. *)
