(** Shortest-path-first (Dijkstra) computation over an IGP graph, used for
    decision step 6 (lowest IGP metric to the BGP next hop).

    Every function raises [Invalid_argument] when the node count times
    the largest metric, shifted left by the bit width of the arc count,
    does not fit an OCaml int (about 2{^62}). With 24-bit metrics (the
    IS-IS wide-metric range) that admits graphs of over 100 000 nodes
    with a few arcs each. *)

val unreachable : int
(** Distance value for unreachable nodes ([max_int]). *)

val run : Graph.t -> src:int -> int array * int array
(** [run g ~src] returns [(dist, parent)]: [dist.(v)] is the metric of the
    shortest path from [src] to [v] ({!unreachable} if none), [parent.(v)]
    the predecessor on that path (-1 for [src] and unreachable nodes). *)

val distances : Graph.t -> src:int -> int array

val path : Graph.t -> src:int -> dst:int -> int list option
(** Node sequence from [src] to [dst] inclusive, or [None]. *)

val all_pairs : Graph.t -> int array array
(** Distance matrix: [m.(u).(v)] = metric of shortest path u→v. Builds
    the flattened adjacency and the heap once and reuses them for every
    source; allocates nothing beyond the matrix. *)

type table
(** Destination-major distance table: one column per destination,
    holding every node's distance to it. Shared between all its
    readers and never mutated. *)

val table : Graph.t -> table
(** [table g] is the table of [g] at its current {!Graph.generation}.
    It is computed once per generation, one Dijkstra per destination
    over incoming arcs, and kept in the graph's {!Graph.memo} slot:
    every call at one generation returns the physically same table,
    also across domains, and an edit makes the next call compute a
    fresh one. A table taken earlier keeps its old distances. *)

val cost : table -> src:int -> dst:int -> int
(** Metric of the shortest path [src -> dst] ({!unreachable} if none),
    as [(all_pairs g).(src).(dst)]. Allocates nothing.
    @raise Invalid_argument if [src] or [dst] is out of range. *)

val reachable_from : Graph.t -> src:int -> bool array
val connected : Graph.t -> bool
