(** A mutable route table holding, per prefix, one or more routes
    distinguished by their add-paths Path Identifier. Used for
    Adj-RIB-In (one per peer), Loc-RIB and Adj-RIB-Out.

    The table is a path-compressed binary trie keyed by the prefix
    bits (the mutable sibling of {!Netaddr.Prefix_trie}): one 5-word
    node per stored prefix plus one list cell per route, independent
    of how sparse the address space is, and longest-prefix match comes
    directly off the structure — {!longest_match} is what lets the
    router serve data-plane lookups straight from its Loc-RIB with no
    separate FIB copy. Iteration ({!fold}, {!iter}, {!prefixes}) is in
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

val clear_prefix : t -> Prefix.t -> int
(** Remove all routes for the prefix; returns how many were removed. *)

val clear : t -> unit

val entry_count : t -> int
(** Total stored routes (paper's RIB size). O(1). *)

val prefix_count : t -> int
(** Number of distinct prefixes with at least one route. O(1). *)

val mem : t -> Prefix.t -> bool

val fold : (Prefix.t -> Route.t list -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending prefix order (address, then shorter-first). *)

val iter : (Prefix.t -> Route.t list -> unit) -> t -> unit
(** Ascending prefix order. *)

val prefixes : t -> Prefix.t list
(** Ascending prefix order. *)

val longest_match : t -> Ipv4.t -> (Prefix.t * Route.t list) option
(** Most specific stored prefix containing the address, with its
    routes — the data-plane lookup. O(matching prefix length). *)

(** Per-prefix dirty tracking for batched incremental processing: a
    processing batch accumulates one ['a] churn payload per distinct
    dirty prefix, then {!Dirty.drain}s the set in deterministic prefix
    order and decides each prefix exactly once. The set is keyed on
    {!Netaddr.Prefix.to_key}, so re-marking a prefix within a batch
    returns the payload already accumulated for it. *)
module Dirty : sig
  type 'a t

  val create : unit -> 'a t

  val mark : 'a t -> Prefix.t -> (unit -> 'a) -> 'a
  (** [mark t p fresh]: the payload already tracked for [p], or [fresh ()]
      newly tracked for it. *)

  val find : 'a t -> Prefix.t -> 'a option
  val is_empty : 'a t -> bool

  val count : 'a t -> int
  (** Distinct dirty prefixes currently tracked. *)

  val drain : 'a t -> (Prefix.t * 'a) list
  (** All tracked (prefix, payload) pairs in ascending prefix order,
      leaving the set empty. *)
end
