(** Network configuration: which iBGP scheme runs, with which parameters.

    Conventions (documented in the README):
    - router [i]'s loopback / BGP identifier is [10.0.0.0 + i];
    - with next-hop-self, a route's NEXT_HOP identifies the border router
      that injected it into iBGP;
    - TBRR cluster [c] uses cluster ID [192.168.0.0 + c];
    - eBGP neighbours live outside 10/8 (the workload generator uses
      172.16/12). *)

open Netaddr
open Eventsim

type cluster = { trrs : int list; clients : int list }
(** One TBRR cluster: its reflectors and its client routers. A client may
    appear in several clusters (the Tier-1 AS has ~20% such clients). *)

type tbrr_spec = {
  clusters : cluster list;
  multipath : bool;
  best_external : bool;
}
(** [multipath] selects the Appendix A.3 variant where TRRs maintain and
    advertise all best AS-level routes. [best_external] makes a TRR keep
    advertising its best client-side route to the TRR mesh even when its
    overall best is mesh-learned (draft-ietf-idr-best-external, the
    paper's ref [25]) — one of the partial fixes ABRR subsumes. *)

type loop_prevention = Reflected_bit | Cluster_list
(** §2.3.2: ABRR needs only a single "already reflected" bit (an extended
    community); the RFC 4456 CLUSTER_LIST also works and is kept for the
    ablation. *)

type abrr_spec = {
  mutable partition : Partition.t;
  mutable arrs : int list array;  (** [arrs.(ap)] = routers serving that AP *)
  loop_prevention : loop_prevention;
}
(** [partition] and [arrs] are mutable for the live-repartition drill
    ({!Network.repartition}): the running network rewrites them in place
    and re-derives every router's role. Do not mutate them directly —
    routers cache roles derived from these fields. *)

type confed_spec = {
  sub_as_of : int array;  (** router index -> member sub-AS index *)
  confed_links : (int * int) list;
      (** confed-eBGP sessions between border routers of different
          sub-ASes *)
}
(** A BGP Confederation (RFC 5065, the other IETF iBGP scaling
    mechanism from §1): the AS splits into member sub-ASes, each running
    internal full-mesh iBGP, glued by confed-eBGP sessions. Member
    sub-AS [i] uses the private ASN [64512 + i]. *)

type acceptance = Accept_tbrr | Accept_abrr

type scheme =
  | Full_mesh
  | Tbrr of tbrr_spec
  | Abrr of abrr_spec
  | Confed of confed_spec
  | Rcp of { rcps : int list }
      (** Routing Control Platform (Caesar et al., NSDI'05 — the paper's
          §5 alternative): replicated control-plane nodes learn every
          route from every router and hand each client its own best
          path, computed from that client's IGP vantage point. *)
  | Dual of { tbrr : tbrr_spec; abrr : abrr_spec; accept : acceptance array }
      (** §2.4 transition: both schemes run; [accept.(ap)] selects which
          scheme's routes each AP's prefixes are taken from. *)

(** Decision-engine strategy (DESIGN.md, "Incremental decision"). Both
    produce identical routing outcomes, counters and snapshots — the
    oracle property the qcheck churn suite and the CI [--decision naive]
    identity run enforce; only the work done per dirty prefix differs. *)
type decision =
  | Incremental
      (** classify each dirty prefix against the cached per-plane
          incumbents and run the full kernel only when required *)
  | Naive  (** recompute every dirty prefix unconditionally *)

type t = {
  n_routers : int;
  asn : Bgp.Asn.t;
  igp : Igp.Graph.t;
  scheme : scheme;
  med_mode : Bgp.Decision.med_mode;
  mrai : Time.t;  (** 0 disables the MRAI timer *)
  link_delay : int -> int -> Time.t;
  proc_delay : Time.t;  (** per-batch update processing latency *)
  proc_jitter : Time.t;
      (** per-router processing-phase spread: router [i] adds a
          deterministic extra delay in [0, proc_jitter) to each batch,
          modelling the heterogeneous processing times the paper observes
          across RRs (§4.2) *)
  store_full_sets : bool;
      (** clients keep full add-paths sets (traffic-engineering mode)
          instead of one best route per reflector (§3.4 default) *)
  control_plane_rrs : bool;
      (** RRs are pure control-plane devices: not clients, no data plane *)
  decision : decision;
  damping : Bgp.Damping.params option;
      (** route-flap damping on eBGP-learned routes (RFC 2439 style,
          {!Bgp.Damping}); [None] (the default) disables damping
          entirely — no penalty state is kept *)
}

val make :
  ?asn:Bgp.Asn.t ->
  ?med_mode:Bgp.Decision.med_mode ->
  ?mrai:Time.t ->
  ?link_delay:(int -> int -> Time.t) ->
  ?proc_delay:Time.t ->
  ?proc_jitter:Time.t ->
  ?store_full_sets:bool ->
  ?control_plane_rrs:bool ->
  ?decision:decision ->
  ?damping:Bgp.Damping.params ->
  n_routers:int ->
  igp:Igp.Graph.t ->
  scheme:scheme ->
  unit ->
  t
(** Defaults: AS 65000, per-neighbour-AS MED, MRAI off, the deterministic
    {!default_link_delay}, 1 ms processing delay with no jitter, best-only
    client storage, data-plane RRs, incremental decision, no damping. *)

val proc_delay_of : t -> int -> Time.t
(** Effective per-batch processing delay of a router (base + phase). *)

val tbrr : ?multipath:bool -> ?best_external:bool -> cluster list -> scheme
val confed : sub_as_of:int array -> confed_links:(int * int) list -> scheme
val rcp : int list -> scheme

val member_asn : int -> Bgp.Asn.t
(** [member_asn i] = private ASN 64512 + i of sub-AS [i]. *)

val abrr : ?loop_prevention:loop_prevention -> partition:Partition.t -> int list array -> scheme

val default_link_delay : int -> int -> Time.t
(** 1 ms plus a deterministic per-pair jitter of 0–600 us — enough skew
    to exercise the TBRR race conditions of §4.2. *)

val loopback : int -> Ipv4.t
val loopback_index : t -> Ipv4.t -> int
(** The router whose loopback is the address, or -1 if none. Allocates
    nothing: the IGP-cost readers call it once per candidate route. *)

val router_of_loopback : t -> Ipv4.t -> int option
(** {!loopback_index} as an option. *)

val cluster_id : int -> Ipv4.t

val add_paths : t -> bool
(** Whether sessions negotiate add-paths (ABRR, multipath TBRR, Dual). *)

val validate : t -> (unit, string) result
(** Structural checks: router indices in range, ARRs per AP non-empty,
    AP array length matches the partition, clients have reflectors, etc. *)
