(** A mutable route table holding, per prefix, one or more routes
    distinguished by their add-paths Path Identifier. Used for
    Adj-RIB-In (one per peer), Loc-RIB and Adj-RIB-Out.

    The table is a path-compressed binary trie keyed by the prefix
    bits (the mutable sibling of {!Netaddr.Prefix_trie}): one 5-word
    node per stored prefix plus one list cell per route, independent
    of how sparse the address space is, and longest-prefix match comes
    directly off the structure — {!longest_match} is what lets the
    router serve data-plane lookups straight from its Loc-RIB with no
    separate FIB copy. Iteration ({!fold}, {!iter}) is in
    ascending {!Netaddr.Prefix.compare} order, so downstream consumers
    are deterministic by construction.

    Entry counts follow the paper's accounting: the size of a RIB is the
    total number of routes stored, not the number of prefixes. *)

open Netaddr

type t

val create : unit -> t

val get : t -> Prefix.t -> Route.t list
(** All routes stored for a prefix (possibly []), in insertion order of
    path ids. *)

val set : t -> Prefix.t -> Route.t list -> unit
(** Replace the full route set for a prefix; [set t p []] removes it. *)

val upsert : t -> Route.t -> bool
(** Insert or replace by (prefix, path_id). Returns [true] when the table
    changed (new entry, or replaced entry differs). Single pass: a
    replacement keeps the route's position in the prefix's list. *)

val drop : t -> Prefix.t -> path_id:int -> bool
(** Remove one route; [true] if it was present. Single pass. *)

val clear : t -> unit

val entry_count : t -> int
(** Total stored routes (paper's RIB size). O(1). *)

val fold : (Prefix.t -> Route.t list -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending prefix order (address, then shorter-first). *)

val iter : (Prefix.t -> Route.t list -> unit) -> t -> unit
(** Ascending prefix order. *)

val longest_match : t -> Ipv4.t -> (Prefix.t * Route.t list) option
(** Most specific stored prefix containing the address, with its
    routes — the data-plane lookup. O(matching prefix length). *)
