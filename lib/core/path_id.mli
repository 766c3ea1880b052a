(** Stable add-paths Path Identifier allocation for set advertisements.

    A reflector that advertises a *set* of routes per prefix must give
    each distinct path a stable identifier so receivers can correlate
    announcements and withdrawals across updates. *)

open Netaddr

type t

val create : unit -> t

val assign : t -> Prefix.t -> Bgp.Route.t list -> Bgp.Route.t list * int list
(** [assign t prefix routes] matches [routes] (dedup by
    {!Bgp.Route.same_path}) against the previously assigned set: unchanged
    paths keep their ids, new paths get fresh ids (starting at 1), and the
    ids of paths no longer present are returned as withdrawn. The internal
    state is replaced by the new set. Assigning [[]] to a prefix with no
    assignment returns [([], [])] and leaves the table untouched. *)

val current : t -> Prefix.t -> Bgp.Route.t list
(** The set most recently assigned for the prefix (with ids). *)

val drop_prefix : t -> Prefix.t -> int list
(** Forget a prefix entirely; returns the withdrawn ids. *)

val clear : t -> unit
(** Forget all assignments (cold restart). *)

(** {1 Checkpoint support} *)

type dump = (int * Bgp.Route.t list * int) list
(** [(prefix key, assigned set, next fresh id)] per tracked prefix,
    sorted by key (canonical — equal allocator states dump equal). *)

val dump : t -> dump
val load : t -> dump -> unit
