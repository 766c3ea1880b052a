(** A simulated AS: routers wired per the configured iBGP scheme over a
    discrete-event simulation, with eBGP injection, measurement hooks and
    the §2.4 transition switch.

    Every event the network schedules is {e reified}: the simulator's
    payload type ({!payload}) is plain data interpreted by an executor
    this module installs, so the pending event queue can round-trip
    through the checkpoint codec (lib/snapshot). The one escape hatch is
    {!at}, which wraps an arbitrary closure in a [Thunk] payload —
    convenient for tests and scripts, but a snapshot taken while a
    [Thunk] is pending fails to encode; schedule {!at_op} operations
    instead when checkpointing matters. *)

open Netaddr
open Eventsim

type t

(** An external operation scheduled against the network — the reified
    counterpart of the {!inject}/{!withdraw}/{!originate}/{!fail}/
    {!recover} calls (trace replay, failure scripts). *)
type op =
  | Inject of { router : int; neighbor : Ipv4.t; route : Bgp.Route.t }
  | Withdraw of {
      router : int;
      neighbor : Ipv4.t;
      prefix : Prefix.t;
      path_id : int;
    }
  | Originate of { router : int; route : Bgp.Route.t }
  | Withdraw_local of { router : int; prefix : Prefix.t; path_id : int }
  | Fail of int
  | Recover of int

(** What a scheduled event does when it fires. *)
type payload =
  | Deliver of {
      src : int;
      dst : int;
      bytes : int;
      msgs : int;
      items : Proto.item list;
    }  (** iBGP message delivery to [dst] *)
  | Process of int  (** router processing-batch timer *)
  | Mrai_flush of { router : int; peer : int }  (** MRAI flush timer *)
  | Purge of { router : int; peer : int }
      (** hold-timer expiry: [router] tears down its session to [peer] *)
  | Establish of { router : int; peer : int }
      (** session re-establishment: [router] replays its Adj-RIB-Out to
          [peer] *)
  | Op of op  (** external operation ({!at_op}) *)
  | Thunk of (unit -> unit)  (** opaque closure ({!at}) — not snapshotable *)

val create : ?seed:int -> Config.t -> t
(** Takes the IGP graph's distance table ({!Igp.Spf.table}): the first
    network over a graph generation computes it, later ones (a
    checkpoint restore, a sweep sharing one topology) reuse it.
    @raise Invalid_argument when {!Config.validate} fails. *)

val config : t -> Config.t

val sim : t -> payload Sim.t
(** The underlying simulator — attach a {!Eventsim.Sim.Trace} sink or
    bracket {!Eventsim.Sim.phase}s through it (see OBSERVABILITY.md). *)

val router_count : t -> int
val router : t -> int -> Router.t

(** {1 Trace-sink event kinds}

    Every event this module schedules carries a kind and an actor
    (router id), recorded by an attached trace sink. *)

val trace_kind_deliver : int
(** iBGP message delivery; the entry's [actor] is the receiving router
    and [detail] the number of protocol items in the batch. *)

val trace_kind_timer : int
(** Router-local work: processing batches, MRAI flushes, session
    hold-timer expiry. [actor] is the router that scheduled it. *)

val trace_kind_external : int
(** Externally scheduled work ({!at}, {!at_op}: trace replay, failure
    scripts). *)

val trace_kind_name : int -> string
(** Human-readable name of a kind code (["deliver"], ["timer"], ...). *)

(** {1 Driving the simulation} *)

val inject : t -> router:int -> neighbor:Ipv4.t -> Bgp.Route.t -> unit
(** Deliver an eBGP announcement to a border router at the current
    simulated time. *)

val withdraw : t -> router:int -> neighbor:Ipv4.t -> Prefix.t -> path_id:int -> unit
val originate : t -> router:int -> Bgp.Route.t -> unit

val run : ?until:Time.t -> ?max_events:int -> t -> Sim.outcome
(** Run until quiescent (converged), the deadline, or the event budget —
    the latter is how oscillations are detected (and how segmented
    checkpoint runs pause at an event boundary). *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** Schedule a closure at an absolute simulated time, as a [Thunk]
    payload. Not snapshotable while pending — prefer {!at_op}. *)

val at_op : t -> Time.t -> op -> unit
(** Schedule a reified operation at an absolute simulated time (trace
    replay, failure scripts). Snapshot-safe. *)

(** {1 Observation} *)

val best : t -> router:int -> Prefix.t -> Bgp.Route.t option

val lookup : t -> router:int -> Ipv4.t -> (Prefix.t * Bgp.Route.t) option
(** Longest-prefix-match forwarding lookup (the data-plane view). *)

val best_exit : t -> router:int -> Prefix.t -> int option
val counters : t -> int -> Counters.t
val total_counters : t -> Counters.t
val last_change : t -> Time.t
(** Latest Loc-RIB change across all routers (convergence stamp). *)

val on_best_change : t -> (int -> Prefix.t -> Bgp.Route.t option -> unit) -> unit
(** Register a hook called on every Loc-RIB change (router, prefix,
    new best). Multiple hooks compose. *)

val best_changes : t -> int
(** Total Loc-RIB changes since creation (oscillation diagnostics). *)

val igp_distance : t -> int -> int -> int
(** [igp_distance t i j]: metric of the shortest IGP path from router
    [i] to router [j], read from the distance table the network took at
    {!create} or its last {!refresh_igp}. That table is
    {!Igp.Spf.table} of the configuration's graph, shared with every
    network over the same graph generation. *)

val refresh_igp : t -> unit
(** Take the IGP graph's current distance table after it was edited
    (link failure experiments) and re-run every router's decision
    process. *)

(** {1 Transition (§2.4)} *)

val acceptance : t -> int -> Config.acceptance
val set_acceptance : t -> ap:int -> Config.acceptance -> unit
(** Flip one AP's acceptance (Dual scheme only) and trigger re-decision
    everywhere. @raise Invalid_argument outside Dual. *)

(** {1 Live repartitioning} *)

val repartition : t -> partition:Partition.t -> arrs:int list array -> unit
(** Replace the ABRR partition and per-AP ARR assignment in place, then
    have every router re-derive its roles and emit the minimal update
    traffic the ownership change requires ({!Router.apply_repartition}).
    Prefixes outside {!Partition.delta_range} between the old and new
    partitions generate no messages when the ARR sets are otherwise
    unchanged — the consistent-hashing minimal-movement property the
    repartition drill asserts. The caller should then {!run} the network
    to quiescence. @raise Invalid_argument outside ABRR, on an [arrs]
    length mismatch, an empty AP, or an out-of-range ARR index. *)

(** {1 Failure injection (§2.3.3)} *)

val fail : t -> router:int -> unit
(** Crash a router: it stops processing, and every other router tears
    down its session to it (purging learned state) after the session
    hold time elapses. *)

val recover : t -> router:int -> unit
(** Cold-restart a failed router: its BGP state is empty, and after
    session re-establishment every peer replays its Adj-RIB-Out to it.
    eBGP feeds must be re-injected by the caller. *)

val hold_time : Eventsim.Time.t
(** Simulated session teardown / re-establishment latency (3 s). *)

(** {1 Checkpoint support (lib/snapshot)} *)

(** Network-level simulation state beside the routers, as plain data:
    the simulator's dispatch scalars and pending (reified) event queue,
    the Loc-RIB change counter, and the trace-sink ring when one is
    attached. Not in here: the config (the restoring caller rebuilds it
    and the codec checks a fingerprint), SPF distances (taken from that
    config's IGP graph: {!restore_sim} keeps the table {!create} took
    unless the graph was edited since), and {!on_best_change} hooks
    (closures — re-register after restoring). *)
type sim_dump = {
  d_clock : Time.t;
  d_next_seq : int;
  d_processed : int;
  d_rng : int64;  (** splitmix64 state word *)
  d_events : payload Sim.event list;  (** sorted by (time, seq) *)
  d_best_changes : int;
  d_sink : Sim.Trace.dump option;
}

type dump = { d_sim : sim_dump; d_routers : Router.state array }
(** Complete simulation state: {!sim_dump} and every router's
    {!Router.state}. *)

val dump_sim : t -> sim_dump
val dump : t -> dump

val restore_sim : t -> sim_dump -> unit
(** The network-level half of {!load}: the scalars, the event queue and
    the sink. A caller that restores routers one at a time (the
    snapshot codec, with {!Router.load_state} on each {!router}) calls
    it once all of them are loaded.
    @raise Invalid_argument on a sink dump {!Sim.Trace.of_dump} refuses. *)

val load : t -> dump -> unit
(** Restore into a network freshly {!create}d from the same config the
    dump was taken under: every router, then {!restore_sim}.
    @raise Invalid_argument on a router-count mismatch. *)

(** {1 Sharded execution (lib/eventsim {!Eventsim.Sharded})} *)

module Sharded : sig
  (** Run one simulation across OCaml 5 domains, deterministically.

      Routers are partitioned into [jobs] shards — contiguous index
      ranges, except that under ABRR (and Dual) each AP's ARR set is
      colocated on one shard, preserving the scheme's address-partition
      locality. The engine's lookahead is the minimum cross-shard link
      delay capped by {!hold_time}; the conservative windows it induces
      make the sharded run {e bit-identical} in observable state
      (digests, counters, trace sink, BENCH records) to the serial one.
      See DESIGN.md "Sharded simulation". *)

  type plan = {
    shards : int;  (** effective shard count ([jobs] clamped to routers) *)
    shard_of : int array;  (** router index -> shard *)
    lookahead : Time.t;
  }

  type stats = Eventsim.Sharded.stats = {
    shards : int;
    windows : int;
    stalls : int;
    cross_events : int;
    max_window_events : int;
  }

  val plan : Config.t -> jobs:int -> (plan, string) result
  (** Pure partitioning decision. [jobs] is clamped to [1 .. n_routers];
      [jobs = 1] yields a single shard with unbounded lookahead (one
      window runs the whole schedule). [Error] when some cross-shard
      link delay is not positive — zero lookahead admits no
      conservative window. *)

  val plan_of : t -> jobs:int -> (plan, string) result
  (** The plan {!run} uses: {!plan} of the network's config, computed on
      the first call for a [jobs] value and kept until the next call
      with another [jobs] value or a {!Network.repartition}. *)

  val run :
    ?until:Time.t ->
    ?max_events:int ->
    ?on_barrier:(unit -> unit) ->
    t ->
    jobs:int ->
    Sim.outcome * stats
  (** Like {!Network.run} but sharded across [jobs] domains. The
      network's observable state afterwards is identical to the serial
      run's; [on_barrier] fires between windows with the master
      simulator (and {!best_changes}) synced to the consistent barrier
      state — the checkpoint / digest hook. [max_events] has barrier
      granularity: the run can overshoot by up to one window before
      reporting [Event_limit].
      @raise Invalid_argument when the plan is an [Error], a [Thunk]
      event is pending, or {!on_best_change} hooks are registered
      (arbitrary closures cannot be run from worker domains). *)
end
