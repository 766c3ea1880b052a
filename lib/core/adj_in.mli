(** One Adj-RIB-In plane of a router, prefix-major: a path-compressed
    binary trie keyed by {!Netaddr.Prefix.to_key} whose node for a
    prefix holds every source's routes for it. A source is a peer's
    router id; a node's sources are kept in ascending order, each with
    a non-empty route set in stored order.

    A decision reads a plane with one descent ({!node}) and a walk over
    the node's slots; a store is one descent ({!exchange}). Empty sets
    are never stored, so two planes holding the same routes have the
    same contents whatever their history. *)

open Netaddr

type t
type node

val create : unit -> t

val node : t -> Prefix.t -> node
(** The prefix's sources; a node of {!width} 0 when there are none. *)

val width : node -> int
(** Number of sources. *)

val src : node -> int -> int
(** [src n i], [0 <= i < width n]: sources ascend with [i]. *)

val routes : node -> int -> Bgp.Route.t list
(** The routes of source [src n i]: never [[]]. *)

val get : t -> Prefix.t -> int -> Bgp.Route.t list
(** [get t p src]: [src]'s routes for [p], [[]] when it has none. *)

val exchange : t -> Prefix.t -> int -> Bgp.Route.t list -> Bgp.Route.t list
(** [exchange t p src routes] stores [routes] as [src]'s set for [p] and
    returns the set it replaces. [[]] removes the slot, and a prefix
    left without sources is removed. *)

val clear_prefix : t -> Prefix.t -> int
(** Remove every source's routes for the prefix; returns how many
    sources had some. *)

val drop_source : t -> int -> Prefix.t list
(** Remove every route of a source; returns the prefixes it had routes
    for, in ascending {!Netaddr.Prefix.compare} order. *)

val iter_prefixes : (Prefix.t -> unit) -> t -> unit
(** Every prefix with at least one source, in ascending order. *)

val entry_count : t -> int
(** Total stored routes over all sources. O(1). *)

val clear : t -> unit

val dump : t -> (int * (Prefix.t * Bgp.Route.t list) list) list
(** Sources ascending, each with its (prefix, routes) entries in
    ascending prefix order. *)
