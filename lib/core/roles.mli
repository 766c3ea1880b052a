(** The roles of a router, derived purely from the configuration: which
    reflector functions it runs next to its client function (§2.1), whom
    it serves and whom it peers with. Routers read them, and static
    analyses ({!Verify.Propagation}) read the same record to mirror the
    simulator's signaling graph without instantiating routers. *)

open Netaddr

type t = {
  is_trr : bool;
  is_client : bool;
  my_cluster_ids : Ipv4.t list;
  my_trrs : int list;  (** reflectors this router is a client of *)
  my_trr_clients : int list;  (** clients of the clusters it serves *)
  trr_mesh : int list;  (** the other TRRs (empty unless a TRR) *)
  tbrr_multipath : bool;
  tbrr_best_external : bool;
  arr_aps : int list;  (** APs this router serves as an ARR *)
  abrr_arrs : int list array;
      (** ARRs per AP: the configuration's table, shared by all routers *)
  partition : Partition.t option;  (** [Some] under ABRR and Dual *)
  abrr_loop : Config.loop_prevention;
  mesh_peers : int list;  (** full-mesh / confed sub-AS iBGP peers *)
  confed_links : int list;  (** confed-eBGP neighbours (RFC 5065) *)
  my_member_asn : Bgp.Asn.t option;
  is_rcp : bool;
  rcps : int list;  (** the control-plane nodes every client reports to *)
  rcp_clients : int list;
}

val derive : Config.t -> int -> t
(** The roles of router [i] under a configuration. *)

val dedup_ints : int list -> int list
(** Ascending, each once. *)

val reflects_to : Config.t -> int list array -> ap:int -> int -> bool
(** [reflects_to config arrs ~ap r]: an ARR of [ap] under the ARR table
    [arrs] reflects to router [r]: a client router that is not itself an
    ARR of [ap]. Under [config.control_plane_rrs] no ARR is a client. *)

val iter_reflect_targets :
  Config.t -> int list array -> aps:int list -> (int -> unit) -> unit
(** [iter_reflect_targets config arrs ~aps f] calls [f], in ascending id
    order, on every router that an ARR of at least one AP in [aps]
    reflects to. Scans the router ids and allocates nothing; no target
    list is stored. *)

val reflect_targets : Config.t -> int list array -> aps:int list -> int list
(** {!iter_reflect_targets} as an ascending list. *)

val serves : t -> Prefix.t -> bool
(** The router is an ARR of an AP holding the prefix. *)

val aps_holding : Partition.t -> Prefix.t -> int list -> int list
(** [aps_holding partition p aps]: the APs of [aps] holding [p], in order. *)

val arrs_of : int list array -> Partition.t -> Prefix.t -> int list
(** [arrs_of arrs partition p]: the ARRs responsible for [p] under the
    ARR table [arrs], ascending; a client advertises [p] to them. *)
