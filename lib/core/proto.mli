(** Protocol-level update items exchanged over iBGP sessions in the
    simulation.

    A {!delta} is the per-prefix unit of change: the full new set of
    routes the sender offers for the prefix on that session (empty =
    withdraw everything), plus the explicitly withdrawn add-paths ids.
    This "replace the set" semantics is exactly what the paper describes
    for ARRs (§3.4: "the ARRs will convey all such routes to the clients
    with each update") and degenerates to ordinary implicit-replace
    announcements in the single-path case. *)

open Netaddr

type channel =
  | Mesh  (** ordinary iBGP peering: full-mesh, TRR-to-TRR, or sub-AS mesh *)
  | Confed  (** confed-eBGP between member sub-ASes (RFC 5065) *)
  | To_trr  (** client function -> TBRR reflector function *)
  | To_arr  (** client function -> ABRR reflector function *)
  | From_trr  (** TBRR reflector -> client function *)
  | From_arr  (** ABRR reflector -> client function *)
  | To_rcp  (** client -> Routing Control Platform node (related work §5) *)
  | From_rcp  (** RCP node -> client: that client's computed best route *)

type delta = {
  prefix : Prefix.t;
  routes : Bgp.Route.t list;  (** new full route set; [] = withdraw *)
  withdrawn_ids : int list;  (** add-paths ids removed from the offer *)
}

type item = channel * delta

val delta : ?withdrawn_ids:int list -> Prefix.t -> Bgp.Route.t list -> delta
val is_withdraw : delta -> bool

val to_update : delta list -> Bgp.Msg.update
(** Collapse deltas into one abstract UPDATE: the message {!wire_size}
    sizes, which tests encode as the reference. *)

val wire_size : add_paths:bool -> delta list -> int * int
(** [(bytes, messages)] the deltas occupy on the wire: what
    [Bgp.Wire.encode] produces for [to_update deltas], computed by
    feeding every delta to one {!Bgp.Wire.Sizer} without building the
    update. *)

val size_delta : Bgp.Wire.Sizer.t -> delta -> unit
(** Feed one delta's withdrawn ids and routes to a sizer — the step
    {!wire_size} takes per delta, for callers that walk their deltas
    anyway. *)

val channel_tag : channel -> int
(** Small integer for use in hash keys. *)

val channel_of_tag : int -> channel
(** Inverse of {!channel_tag} — the checkpoint codec stores channels by
    tag. @raise Invalid_argument on an unknown tag. *)

val item_key : item -> int
(** An int that orders items by channel tag, then by
    {!Netaddr.Prefix.compare} of the prefix: the order in which
    {!Outbox} sends a destination's items. Equal exactly when the
    (channel, prefix) keys are. *)

val coalesce : item list -> item list
(** Collapse same-prefix churn within one delivery: of several items
    sharing a (channel, prefix) key, only the last survives. Sound
    because the receiver applies each item as a full route-set
    replacement for its key ([delta.routes]; [withdrawn_ids] ride along
    for MRAI merging but are not consulted on apply), so the last item
    alone determines the stored state. Relative order of surviving items
    is preserved. A list whose keys ascend strictly (the usual non-self
    delivery) comes back physically, with nothing allocated. *)
