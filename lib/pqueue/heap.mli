(** Mutable array-backed binary min-heap, {e stable} on ties: elements
    that compare equal under [cmp] pop in insertion (FIFO) order.
    Stability is implemented with an internal monotone insertion stamp,
    so it survives growth, interleaved pushes/pops and {!remove}; it
    resets at {!clear}.  The schedule explorer relies on this for a
    canonical ready-set enumeration. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [capacity] (default 16, clamped to >= 1) sizes the backing array's
    first allocation, which happens on the first {!push}; afterwards the
    array doubles as needed. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array capacity (the hint before the first push). *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val top_exn : 'a t -> 'a
(** {!peek} without the option: the simulator's run loop reads the top
    of every event this way, allocating nothing.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** {!pop} without the option; allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val remove : 'a t -> ('a -> bool) -> 'a option
(** Remove and return the first element (in unspecified internal order)
    satisfying the predicate, restoring the heap property; [None] if no
    element matches. O(n) scan + O(log n) repair. Remaining equal-[cmp]
    elements keep their relative FIFO order. *)

val clear : 'a t -> unit
val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
val to_sorted_list : 'a t -> 'a list
(** Drains the heap. *)

val elements : 'a t -> 'a list
(** All elements in unspecified (heap-internal) order, without draining
    — the checkpoint codec sorts them itself. O(n). *)

val map_inplace : 'a t -> ('a -> 'a) -> unit
(** Rewrite every element in place {e without} re-establishing the heap
    property: [f] MUST be order-preserving under [cmp] over the current
    element set ([cmp x y] = [cmp (f x) (f y)] for any two stored
    elements), or the heap invariant is silently broken. Insertion
    stamps are kept, so FIFO tie order survives. O(n). The sharded
    scheduler uses this to rewrite provisional event sequence numbers
    to their merged global values at a synchronization barrier. *)
