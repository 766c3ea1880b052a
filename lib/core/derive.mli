(** The routes a router advertises, derived from the routes it
    selected. The simulator ({!Router}) and the static propagation
    model ([Verify.Propagation]) both call these, so the two derive
    identical attribute sets. Each derivation is one {!Bgp.Route.derive}
    given every field: at most one intern, none when the route already
    carries the derived attributes, and no option block per field. *)

open Netaddr

val stripped : Bgp.Route.t -> Bgp.Route.t
(** The route without reflection attributes (ORIGINATOR_ID,
    CLUSTER_LIST, the §2.3.2 reflected marker) and with path id 0: what
    a confederation member passes on, and the route's class in the
    propagation model. *)

val own : self:Ipv4.t -> Bgp.Route.t -> Bgp.Route.t
(** The client function's iBGP advertisement of a route it learned over
    eBGP or originated: {!stripped} with next-hop-self. *)

val trr_reflect :
  Roles.t -> self:Ipv4.t -> src:int -> Bgp.Route.t -> Bgp.Route.t
(** A TRR reflecting a route learned over iBGP from router [src]
    (RFC 4456): ORIGINATOR_ID set to [src]'s loopback unless present,
    its first cluster id ([self] when it has none) prepended to the
    CLUSTER_LIST, path id 0. *)

val arr_reflect :
  Roles.t -> self:Ipv4.t -> src:int -> Bgp.Route.t -> Bgp.Route.t
(** An ARR reflecting a client route learned from router [src]:
    ORIGINATOR_ID as for {!trr_reflect}, then the §2.3.2 loop marker
    under [Reflected_bit], or [self] prepended to the CLUSTER_LIST under
    [Cluster_list]. The path id is kept. *)
