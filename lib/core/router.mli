(** A simulated router: the client function (sources/sinks iBGP updates,
    runs the full decision process) plus optional reflector functions —
    TRR (topology-based, single- or multi-path) and/or ARR (address-based,
    §2.1).

    Updates are processed in batches: deliveries arriving within one
    processing window are applied together before any output is generated,
    which reproduces the ARR batching behaviour the paper credits for the
    ~30% reduction in client updates (§4.2). Outgoing updates are subject
    to a per-peer MRAI timer when configured. *)

open Netaddr
open Eventsim

type t

type env = {
  id : int;
  config : Config.t;
  now : unit -> Time.t;
  schedule_process : Time.t -> unit;
      (** arm a processing-batch timer: after the relative delay the
          scheduler must call {!process_now} on this router. First-order
          (no closure) so the pending event queue can be checkpointed *)
  schedule_flush : peer:int -> Time.t -> unit;
      (** arm an MRAI flush timer: after the relative delay the
          scheduler must call {!flush_peer} for [peer] *)
  transmit : dst:int -> bytes:int -> msgs:int -> Proto.item list -> unit;
      (** hand a batch to the network for delivery, with its precomputed
          wire size (self-sends allowed: they model the internal
          client/reflector role passing and carry zero bytes) *)
  igp_cost : Ipv4.t -> int;
      (** IGP metric from this router to the owner of a NEXT_HOP;
          {!Igp.Spf.unreachable} if it cannot be resolved *)
  igp_cost_from : src:int -> Ipv4.t -> int;
      (** IGP metric from an arbitrary router — the RCP computes each
          client's best path from that client's vantage point *)
  on_best_change : Prefix.t -> Bgp.Route.t option -> unit;
}

val create : env -> t
val id : t -> int

val process_now : t -> unit
(** Run the processing batch the [schedule_process] timer armed: drain
    the inbox, re-run the decision process on dirty prefixes, flush
    outputs. The network's event executor calls this when a [Process]
    event fires. *)

val flush_peer : t -> peer:int -> unit
(** Fire the MRAI flush toward [peer] that [schedule_flush] armed,
    transmitting the session's pending merged deltas. *)

val loopback : t -> Ipv4.t
val counters : t -> Counters.t
val is_trr : t -> bool
val is_arr : t -> bool
val is_rcp : t -> bool
val arr_aps : t -> int list

(** {1 Inputs} — all are queued and take effect at the next processing
    batch, keeping the simulation deterministic. *)

val receive : t -> src:int -> items:Proto.item list -> bytes:int -> msgs:int -> unit
(** Called by the network at delivery time. *)

val inject_ebgp : t -> neighbor:Ipv4.t -> Bgp.Route.t -> unit
(** An eBGP neighbour announced a route. The route's [path_id] identifies
    the eBGP session at this router (distinct neighbours must use
    distinct ids for the same prefix). *)

val withdraw_ebgp : t -> neighbor:Ipv4.t -> Prefix.t -> path_id:int -> unit
val originate : t -> Bgp.Route.t -> unit
val withdraw_local : t -> Prefix.t -> path_id:int -> unit

val redecide_all : t -> unit
(** Re-run the decision process on every known prefix (used when the
    §2.4 per-AP acceptance switch flips). *)

(** {1 Queries} *)

val best : t -> Prefix.t -> Bgp.Route.t option
val best_exit : t -> Prefix.t -> int option
(** The border router (NEXT_HOP owner) traffic for the prefix exits
    through; [None] when unknown or external. *)

val rib_in_entries : t -> int
(** Total iBGP Adj-RIB-In entries (managed + unmanaged). *)

val rib_in_managed : t -> int
(** Entries learned in a reflector role from clients. *)

val rib_in_unmanaged : t -> int
(** Entries learned in the client role (from reflectors / mesh peers). *)

val rib_out_entries : t -> int
(** Reflector peer-group Adj-RIB-Out entries. *)

val rib_out_client_entries : t -> int
(** Client-function Adj-RIB-Out entries (advertisements into iBGP). *)

val loc_rib_entries : t -> int
val ebgp_entries : t -> int
val received_set : t -> from:int -> Prefix.t -> Bgp.Route.t list
val reflector_set : t -> Prefix.t -> Bgp.Route.t list
(** The ARR's currently advertised best-AS-level set for a prefix. *)

val advertised_route : t -> Prefix.t -> Bgp.Route.t option
(** What the client function currently advertises into iBGP. *)

val known_prefixes : t -> Prefix.t list
(** Every prefix with state in any of this router's RIBs, in ascending
    prefix order, each once. Derived on demand from the tables — there
    is no standing per-router prefix registry (SCALING.md). *)

val rejected_loops : t -> int
(** Updates discarded by loop prevention (§2.3.2). *)

(** {1 Invariant-checker support ({!Verify.Invariant})} *)

val idle : t -> bool
(** No queued inputs and no processing batch scheduled: the router's
    Loc-RIB is consistent with its Adj-RIB-Ins, so {!best} must agree
    with {!recomputed_best}. *)

val recomputed_best : t -> Prefix.t -> Bgp.Route.t option
(** Re-run the decision process from the stored Adj-RIB-Ins without
    touching any state — the independent re-derivation the runtime
    RIB-consistency invariant compares {!best} against. *)

(** {1 Failure injection (§2.3.3 robustness)} *)

val is_up : t -> bool

val set_down : t -> unit
(** Crash the router: stops processing and drops queued work. Use
    {!Network.fail} so peers tear their sessions down too. *)

val set_up_cold : t -> unit
(** Restart with empty BGP state (eBGP feeds must be re-injected). *)

val purge_peer : t -> peer:int -> unit
(** Tear down the session to a failed peer: drop everything learned from
    it and re-run the decision process on the affected prefixes. *)

val refresh_to : t -> peer:int -> unit
(** Replay the current Adj-RIB-Out towards a re-established peer (BGP's
    initial full-table exchange). *)

val apply_repartition : t -> unit
(** Re-derive this router's roles from the (mutated) configuration after a
    live repartition ({!Network.repartition}) and emit the minimal traffic
    the ownership change requires: an ARR withdraws prefixes it no longer
    serves towards its old reflect targets, a border router re-advertises
    its eBGP-learned prefixes to newly responsible ARRs. Only prefixes
    inside the partitions' {!Partition.delta_range} generate messages. *)

val lookup : t -> Ipv4.t -> (Prefix.t * Bgp.Route.t) option
(** Longest-prefix-match forwarding lookup, answered directly by the
    Loc-RIB's trie (what the FIB would do for a data packet — there is
    no separate FIB copy). *)

(** {1 Checkpoint support (lib/snapshot)}

    A router's complete BGP state as plain data. [dump_state] is
    canonical: every table is emitted sorted by key, so two routers in
    the same logical state dump structurally equal values (and hence
    identical snapshot bytes — the divergence bisector relies on this).
    [load_state] wipes the router (cold start) and refills it; the FIB
    trie is rebuilt from the restored Loc-RIB. Scheduled work is {e not}
    in here — the pending [Process]/[Mrai_flush] events live in the
    simulator queue, which the network dump captures alongside. *)

(** Queued inputs awaiting the next processing batch — first-order so a
    mid-batch inbox round-trips through the codec. *)
type input =
  | In_items of { src : int; items : Proto.item list }
  | In_ebgp of { neighbor : Ipv4.t; route : Bgp.Route.t }
  | In_ebgp_withdraw of { neighbor : Ipv4.t; prefix : Prefix.t; path_id : int }
  | In_local of Bgp.Route.t
  | In_local_withdraw of { prefix : Prefix.t; path_id : int }
  | In_redecide_all

type rib_dump = (Prefix.t * Bgp.Route.t list) list
(** Per-prefix route sets, sorted by prefix; route-list order is the
    RIB's stored (path-id insertion) order and is preserved exactly. *)

type state = {
  st_ribs : rib_dump array;  (** fixed slot order: router.ml's table registry *)
  st_peer_tables : (int * rib_dump) list array;
      (** per-source Adj-RIB-Ins and the RCP per-client Adj-RIB-Out,
          sources ascending, none with an empty dump *)
  st_path_ids : Path_id.dump array;  (** add-paths id allocators *)
  st_ebgp_neighbors : ((int * int) * Ipv4.t) list;
  st_inbox : input list;  (** FIFO order *)
  st_process_scheduled : bool;
  st_sessions : Outbox.session_state list;
  st_damping : Damping_table.entry_state list;  (** sorted by [ds_key] *)
  st_counters : Counters.t;
  st_rejected_loops : int;
  st_up : bool;
}

val dump_state : t -> state
(** No output is pending at an event boundary: every entry point that
    queues output flushes it before returning, so the state has no
    outgoing slot. *)

val load_state : t -> state -> unit
(** @raise Invalid_argument when the dump's slot-array lengths do not
    match this build (format drift — the codec's version field should
    have caught it). *)
