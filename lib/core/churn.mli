(** The bookkeeping of the incremental decision (DESIGN.md,
    "Incremental decision"). Input application accumulates one churn
    record per dirty prefix in a batch: which decision planes the
    batch's events can influence, and the routes that entered or left a
    stored table. At batch end each dirty prefix is classified once
    against the cached per-plane incumbents (the heads of the RIBs the
    previous computation wrote); the full recomputation runs only when a
    churned route is not provably irrelevant
    ({!Bgp.Decision.intrinsic_loses}). *)

open Netaddr

type t = private {
  mutable full : bool;  (** a structural event: recompute *)
  mutable planes : int;  (** the planes the events can challenge *)
  mutable routes : Bgp.Route.t list;  (** routes that entered or left a table *)
}
(** One dirty prefix's churn record. *)

type batch
(** The dirty prefixes of one batch, each with its record. *)

val batch : unit -> batch
(** The domain's dirty set, empty. Every entry point that marks drains
    before it returns, so one set serves every batch the domain runs;
    what a batch aborted by an exception left in it is dropped here. Its
    arrays and records are kept and reused: a warm set marks and drains
    without allocating. *)

val is_empty : batch -> bool

val drain : batch -> 'a -> ('a -> Prefix.t -> t -> unit) -> unit
(** [drain b x f] calls [f x p c] for every dirty prefix [p] with its
    record [c], in ascending {!Netaddr.Prefix.compare} order, and leaves
    the set empty, even when [f] raises. Every record is reset when the
    drain ends, so [f] must not keep one, and must not mark [b]. *)

(** {1 Planes}: bit flags for the cached incumbents an event can
    challenge: the Loc-RIB (and every export derived from the client
    decision), a TRR's reflected best toward its clients, a TRR's
    client-side best or survivors toward the TRR mesh, and an ARR's
    reflected best-AS-level set. *)

val plane_loc : int
val plane_trr : int
val plane_mesh : int
val plane_arr : int

val planes_clientside : int
(** The planes an eBGP or local route can challenge. *)

(** {1 Marking} *)

val mark_full : batch -> Prefix.t -> unit
(** A structural event: the prefix recomputes in full. *)

val mark_noop : batch -> Prefix.t -> unit
(** The prefix is examined, but no stored table changed. *)

val mark_delta : batch -> Prefix.t -> int -> Bgp.Route.t list -> unit
(** [mark_delta b p planes routes]: [routes] entered or left a table
    whose incumbents are [planes]. *)

val note_store :
  batch -> Prefix.t -> Proto.channel -> Bgp.Route.t list -> Bgp.Route.t list -> unit
(** [note_store b p channel old routes]: mark how one route set received
    over [channel] changed from [old] to [routes]. A reorder of the
    routes both sets hold is structural. *)

(** {1 Classification} *)

val needs : t -> int -> bool
(** The record's events can challenge the plane. *)

type verdict =
  | Full  (** recompute *)
  | Delta  (** every churned route strictly loses to each plane's head *)
  | Noop  (** no stored table changed *)

val classify :
  t -> Prefix.t -> med_mode:Bgp.Decision.med_mode -> guarded:int -> loc:Bgp.Rib.t ->
  trr:Bgp.Rib.t -> mesh:Bgp.Rib.t -> arr:Bgp.Rib.t -> verdict
(** Classify one dirty prefix against the heads of the plane RIBs.
    [guarded] holds the planes the router computes for the prefix; other
    flags are ignored. An empty incumbent on a guarded, challenged plane
    means the challenger would win by default: [Full]. *)
