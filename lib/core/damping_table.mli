(** A border router's route-flap damping state (RFC 2439 style, with the
    arithmetic of {!Bgp.Damping}): one entry per eBGP session route,
    keyed by (prefix key, path id). Only eBGP announcements and
    withdrawals are damped. A suppressed route is held here, out of the
    router's eBGP table, until its penalty decays under the reuse
    threshold; so the decision process, the invariant checks and the
    snapshot all agree that it is not a candidate meanwhile.

    [schedule d] arms a processing batch after the relative delay [d],
    for a suppressed route's reuse; {!mature} runs in that batch. *)

open Netaddr
open Eventsim

type t

val create : unit -> t

type verdict =
  | Install  (** not suppressed: store the announcement as usual *)
  | Absorbed  (** already suppressed: the offer replaces the held route *)
  | Suppressed
      (** the penalty crossed the suppress threshold: the route is held
          and its reuse scheduled; the caller drops [prev] *)

val announce :
  t -> Bgp.Damping.params -> now:Time.t -> schedule:(Time.t -> unit) -> neighbor:Ipv4.t ->
  prev:Bgp.Route.t option -> Bgp.Route.t -> verdict
(** An eBGP announcement. [prev], the stored route with the same prefix
    and path id, draws the attribute-change penalty if it differs. *)

val withdraw :
  t -> Bgp.Damping.params -> now:Time.t -> neighbor:Ipv4.t -> prefix:Prefix.t ->
  path_id:int -> unit
(** An eBGP withdrawal: adds the withdrawal penalty and forgets a held
    route. *)

val mature :
  t -> Bgp.Damping.params -> now:Time.t -> schedule:(Time.t -> unit) ->
  (Bgp.Route.t * Ipv4.t) list
(** The per-batch pass, in ascending key order: returns the held routes
    whose penalty decayed under the reuse threshold, with their
    neighbours, for the caller to reinstate; reschedules the routes still
    suppressed, and drops decayed entries that hold nothing. *)

val clear : t -> unit

(** {1 Checkpoint support} *)

type entry_state = {
  ds_key : int * int;  (** (prefix key, path_id): the eBGP session slot *)
  ds_penalty : float;
  ds_stamp : Time.t;  (** time the penalty was last brought current *)
  ds_held : Bgp.Route.t option;  (** suppressed announcement, if any *)
  ds_neighbor : Ipv4.t;
  ds_wake : Time.t;  (** latest scheduled reuse-evaluation time *)
}

val dump : t -> entry_state list
(** Sorted by [ds_key]. *)

val load : t -> entry_state list -> unit
(** Add the entries to the (cleared) table. *)
