(** BGP message abstraction (RFC 4271 §4) with add-paths NLRI. *)

open Netaddr

type withdrawal = { prefix : Prefix.t; path_id : int }

type update = {
  withdrawn : withdrawal list;
  announced : Route.t list;
      (** Each route carries its own attribute set; the wire codec groups
          routes with identical attributes into shared UPDATE messages. *)
}

type open_params = {
  asn : Asn.t;
  hold_time : int;
  bgp_id : Ipv4.t;
  add_paths : bool;  (** whether the add-paths capability is offered *)
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_params
  | Update of update
  | Keepalive
  | Notification of notification

val update : ?withdrawn:withdrawal list -> Route.t list -> t
val withdrawal : ?path_id:int -> Prefix.t -> withdrawal
val pp : Format.formatter -> t -> unit
