(** In-place sort of the batch keys behind {!Churn}'s dirty set and
    {!Outbox}'s per-destination items, and the growth of the arrays
    that hold them. *)

val sort : int array -> int array -> int -> unit
(** [sort keys ties n] sorts positions [0 .. n-1] of the parallel arrays
    ascending by [keys], then by [ties], permuting both alike. It
    allocates nothing; already sorted input costs one comparison per
    position. *)

val extend : 'a array -> int -> 'a -> 'a array
(** [extend a n fill]: [a] copied into a fresh array of length [n],
    padded with [fill]. The filler must be immediate or long-lived:
    [Array.make] of more than 256 words with a young block as filler
    forces a minor collection. *)
