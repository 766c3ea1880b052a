(** Weighted graph over integer nodes [0 .. n-1], modelling the IGP
    topology of an AS (links carry IGP metrics). *)

type t

val create : n:int -> t
val node_count : t -> int
val edge_count : t -> int
(** Directed arc count; an undirected edge counts twice. *)

val add_edge : t -> int -> int -> int -> unit
(** [add_edge g u v metric] adds the undirected link [u -- v]. Adding an
    existing link keeps the smaller metric.
    @raise Invalid_argument on out-of-range nodes or negative metric. *)

val add_arc : t -> int -> int -> int -> unit
(** Directed variant. *)

val neighbors : t -> int -> (int * int) list
(** [(neighbor, metric)] pairs, in the reverse of {!iter_neighbors}
    order. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v metric] on every arc [u -> v]. *)

val metric : t -> int -> int -> int option
(** Metric of the arc [u -> v] if present. *)

val remove_edge : t -> int -> int -> unit
(** Remove the undirected link (both arcs). *)

val degree : t -> int -> int

val generation : t -> int
(** Counts the edits that changed the graph: every arc added, removed
    or lowered bumps it. Equal generations mean equal graphs, so a
    caller can tell whether distances it computed earlier are stale. *)

type memo = ..
(** Data derived from the graph at one generation. Only the module that
    adds a constructor can build or read its data. *)

val memo : t -> (int * memo) Atomic.t
(** The graph's one derived-data slot: [(generation, data)], with
    generation -1 until something is derived. {!Spf.table} keeps its
    distance table here, so the table lives as long as the graph, and
    a reader that finds an older generation derives afresh. *)
