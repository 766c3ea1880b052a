(** Routes with hash-consed attribute blocks.

    A route value is a small {e head} — destination prefix, add-paths
    Path Identifier, and a pointer to an interned {e attribute block}
    holding every path attribute from the BGP UPDATE. Blocks are
    hash-consed per domain: structurally equal attribute sets share one
    physical record, so the same block is referenced from every
    Adj-RIB-In, Loc-RIB and Adj-RIB-Out that carries the route,
    across all routers of a simulation. Storing a route in another
    table therefore costs one head (4 words) plus the table slot,
    never a second copy of the attributes; attribute equality is
    usually a pointer comparison. SCALING.md gives the resulting
    bytes/route accounting at paper scale.

    The intern table is {!Intern}, weak and open-addressed. Interning
    hashes the fields and compares them, all of them, against each
    block of that hash in the table; only a miss builds the block. *)

open Netaddr

type attrs = private {
  origin : Origin.t;
  as_path : As_path.t;
  next_hop : Ipv4.t;  (** with next-hop-self, the injecting border router *)
  med : int option;
  local_pref : int;  (** assigned at ingress, carried across iBGP *)
  originator_id : Ipv4.t option;  (** RFC 4456 loop prevention *)
  cluster_list : Ipv4.t list;  (** RFC 4456 loop prevention *)
  communities : Community.t list;
  ext_communities : Ext_community.t list;
  ahash : int;  (** precomputed structural hash; not part of the value *)
  wire_len : int;
      (** encoded length of the block's path attributes — what one
          UPDATE spends on them, see {!wire_len}; derived, not part of
          the value *)
}
(** An interned path-attribute block. The type is private: every block
    in circulation went through the intern table, so within a domain
    structural equality coincides with physical equality. Construct
    with {!make_attrs} or, more commonly, via {!make} / {!update}. *)

type t = {
  prefix : Prefix.t;
  path_id : int;  (** add-paths Path Identifier; 0 when add-paths is off *)
  attrs : attrs;
}
(** A route head. Heads are plain records — cheap to copy, never
    interned; all sharing lives in [attrs]. *)

val make :
  ?path_id:int ->
  ?origin:Origin.t ->
  ?as_path:As_path.t ->
  ?med:int option ->
  ?local_pref:int ->
  ?originator_id:Ipv4.t option ->
  ?cluster_list:Ipv4.t list ->
  ?communities:Community.t list ->
  ?ext_communities:Ext_community.t list ->
  prefix:Prefix.t ->
  next_hop:Ipv4.t ->
  unit ->
  t
(** Build a route, interning its attribute block. Defaults: path_id 0,
    origin Igp, empty AS path, no MED, local_pref 100, no reflection
    attributes, no communities. *)

val make_attrs :
  ?origin:Origin.t ->
  ?as_path:As_path.t ->
  ?med:int option ->
  ?local_pref:int ->
  ?originator_id:Ipv4.t option ->
  ?cluster_list:Ipv4.t list ->
  ?communities:Community.t list ->
  ?ext_communities:Ext_community.t list ->
  next_hop:Ipv4.t ->
  unit ->
  attrs
(** Intern an attribute block directly (same defaults as {!make}). *)

val of_attrs : ?path_id:int -> prefix:Prefix.t -> attrs -> t
(** Attach a head to an already-interned block — the zero-copy path
    used by decoders and the snapshot codec. *)

val attrs : t -> attrs

val update :
  ?path_id:int ->
  ?origin:Origin.t ->
  ?as_path:As_path.t ->
  ?next_hop:Ipv4.t ->
  ?med:int option ->
  ?local_pref:int ->
  ?originator_id:Ipv4.t option ->
  ?cluster_list:Ipv4.t list ->
  ?ext_communities:Ext_community.t list ->
  t ->
  t
(** Functional update of any subset of attributes with at most one
    intern — the replacement for [{ r with ... }] on the old flat
    record. Omitted fields keep their current value. When every
    resulting field is physically the old one, the block is kept as it
    is, without a lookup. *)

val derive :
  path_id:int ->
  origin:Origin.t ->
  as_path:As_path.t ->
  next_hop:Ipv4.t ->
  med:int option ->
  local_pref:int ->
  originator_id:Ipv4.t option ->
  cluster_list:Ipv4.t list ->
  ext_communities:Ext_community.t list ->
  t ->
  t
(** {!update} with every field given: the entry of the router's
    derivations, which would otherwise pay an option block per field
    passed. Communities are kept. A derivation that changes nothing
    returns [t] itself and allocates nothing. *)

(** {1 Field accessors} *)

val origin : t -> Origin.t
val as_path : t -> As_path.t
val next_hop : t -> Ipv4.t
val med : t -> int option
val local_pref : t -> int
val originator_id : t -> Ipv4.t option
val cluster_list : t -> Ipv4.t list
val communities : t -> Community.t list
val ext_communities : t -> Ext_community.t list

val default_local_pref : int

val with_path_id : int -> t -> t
val with_prefix : Prefix.t -> t -> t

val is_reflected : t -> bool
(** Does the route carry the ABRR {!Ext_community.reflected} marker? *)

val in_cluster_list : Ipv4.t -> t -> bool

val neighbor_as : t -> Asn.t option
(** The AS the route was learned from (leftmost AS of the path); [None]
    for locally-originated routes. Used for per-neighbour-AS MED
    comparison. *)

val same_path : t -> t -> bool
(** Attribute equality ignoring [path_id]: do two advertisements describe
    the same path? *)

val compare_attrs : t -> t -> int
(** Total order on prefix + attributes ignoring [path_id] — the decision
    kernel's final tie-break, so a post-step-8 tie cannot depend on the
    receiver's path-id allocation order. Field order is fixed; changing
    it would change simulation outcomes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Attribute-block identity} *)

val attrs_equal : attrs -> attrs -> bool
(** Pointer comparison with a structural fallback (the fallback only
    fires across domains, where blocks live in different intern
    tables). *)

val attrs_hash : attrs -> int
(** The precomputed structural hash ([ahash]). *)

val wire_len : attrs -> int
(** The total path-attribute length [Wire.encode] writes for this block
    (flags, type, one- or two-byte length and payload of every
    attribute present), computed once when the block is interned. An
    UPDATE announcing [k] routes of one block is therefore
    [19 + 4 + wire_len a] bytes plus the routes' NLRI. *)

val dummy_attrs : attrs
(** A block that is never interned, carried by no route and equal to no
    other block: a filler for preallocated scratch arrays, so that an
    emptied slot keeps no real block reachable (the intern table is
    weak, and {!interned_attrs} counts what is still reachable). *)

val interned_attrs : unit -> int
(** Number of live attribute blocks in this domain's intern table —
    the sharing statistic reported by [exp_scale]. *)
