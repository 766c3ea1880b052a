(** RFC 4271 §9.1.2.2 best-path selection (Table 2 of the paper), plus the
    "best AS-level routes" selection (steps 1–4 only) used by ABRR route
    reflectors. *)

open Netaddr

type learned =
  | Ebgp
  | Confed_ebgp  (** learned over a confed-eBGP session (RFC 5065) *)
  | Ibgp
  | Local

type candidate = {
  route : Route.t;
  learned : learned;  (** how the deciding router learned the route *)
  peer_id : Ipv4.t;  (** BGP identifier of the advertising peer *)
  peer_addr : Ipv4.t;  (** address of the peering session *)
  igp_cost : int;  (** IGP metric to the route's NEXT_HOP *)
}

val candidate :
  ?learned:learned ->
  ?peer_id:Ipv4.t ->
  ?peer_addr:Ipv4.t ->
  ?igp_cost:int ->
  Route.t ->
  candidate
(** Defaults: [Local], peer fields 0.0.0.0, cost 0. *)

type med_mode =
  | Always_compare
      (** MED compared across all routes ("always-compare-med"); removes
          the non-determinism that causes MED oscillations. *)
  | Per_neighbor_as
      (** RFC 4271 semantics: MED is only comparable among routes learned
          from the same neighbouring AS. *)

(** {1 Push-fed kernel}

    The decision process runs on one domain-local, column-oriented
    scratch. A caller clears it, pushes each candidate's fields into the
    next slot, runs it once, and reads back both the steps 1–4 survivors
    and the 8-step winner by slot. Slot order is rank order: survivors
    keep it, and a tie after step 8 goes to the first slot. Running
    allocates nothing.

    The scratch is shared by every decision in the domain, so a caller
    must read what it needs out of a run before anything else loads the
    scratch again (the list entries below included). *)
module Scratch : sig
  type t

  val get : unit -> t
  (** This domain's scratch. *)

  val clear : t -> unit
  (** Start a new load: no slots, no result. *)

  val push :
    t ->
    Route.t ->
    learned ->
    peer_id:Ipv4.t ->
    peer_addr:Ipv4.t ->
    igp_cost:int ->
    src:int ->
    tag:int ->
    unit
  (** Load one candidate into the next slot. [src] and [tag] are the
      caller's: the kernel stores them and never reads them. *)

  val run : med_mode:med_mode -> t -> unit
  (** Decide over the loaded slots: the steps 1–4 survivors and the
      8-step winner, with the same semantics as {!Naive}. *)

  val winner : t -> int
  (** The winning slot; [-1] when nothing was loaded. *)

  val survivors : t -> int
  (** How many slots survived steps 1–4. *)

  val survivor : t -> int -> int
  (** [survivor s k]: the slot of the [k]-th survivor, ascending. *)

  val route : t -> int -> Route.t
  val learned : t -> int -> learned
  val src : t -> int -> int
  val tag : t -> int -> int
end

(** {1 List entries} — load a candidate list into the scratch and run
    the same kernel. *)

val steps_1_to_4 : med_mode:med_mode -> candidate list -> candidate list
(** Survivors of Local-Pref / AS-path length / Origin / MED — the paper's
    {e best AS-level routes}. Order of the input is preserved, and the
    survivors are the input's candidate values (physical identity
    preserved). *)

val best : med_mode:med_mode -> candidate list -> candidate option
(** Full 8-step decision. Deterministic: ties after step 8 are broken by
    [Route.compare]. [None] on an empty input. Agrees with {!Naive.best}
    on every input, and returns an element of the input. *)

(** The original chained-[List.filter] implementation, retained as the
    differential-testing oracle for the kernel. Semantics (including
    non-transitive per-neighbour-AS MED and tie-breaks) are identical;
    only the evaluation strategy differs. *)
module Naive : sig
  val steps_1_to_4 : med_mode:med_mode -> candidate list -> candidate list
  val best : med_mode:med_mode -> candidate list -> candidate option
end

val intrinsic_loses :
  med_mode:med_mode -> incumbent:Route.t -> Route.t -> bool
(** [intrinsic_loses ~med_mode ~incumbent r]: does [r] strictly lose to
    [incumbent] on the route-intrinsic prefix of the decision process —
    local preference, AS-path length, origin rank, and MED where MED is
    sound to consult ([Always_compare] always; [Per_neighbor_as] only
    when both routes come from the incumbent's neighbour AS)?

    When [incumbent] is the head of a RIB computed by
    {!steps_1_to_4}/{!best} over some candidate set, a [true] result
    certifies that adding [r] to — or removing [r] from — that set
    changes neither the winner nor the step-1-4 survivor set: [r] is
    eliminated before any candidate-dependent step (5-8) can see it,
    and its elimination does not alter any per-group MED minimum. This
    is the fast-reject primitive of the incremental decision path
    (DESIGN.md, "Incremental decision"); candidate-dependent steps are
    deliberately never consulted here. [false] means nothing — the
    caller must fall back to a full pass. *)

val rank : med_mode:med_mode -> candidate list -> candidate list
(** All candidates sorted from best to worst under the full process
    (used for multi-path RIBs and diagnostics). *)

val tie_break_step : med_mode:med_mode -> candidate list -> int
(** Which decision step (1-8) discriminated the winner, or 0 when only a
    single candidate was supplied. Diagnostic aid. *)

val neighbor_as_int : Route.t -> int
(** The route's neighbouring AS as an int, [-1] when it has none: the
    group key of per-neighbour-AS MED. Allocates nothing. *)

val med : Route.t -> int
(** Missing-MED semantics used throughout: absent MED is treated as 0
    (best), matching the paper's Cisco-derived setting. *)
