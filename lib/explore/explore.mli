(** Bounded model checking over simulator schedules.

    A single {!Abrr_core.Network.run} exercises one schedule: events pop
    in (time, seq) order. Convergence of BGP-like systems is famously
    schedule-dependent, so this module treats the set of pending events
    as a {e nondeterministic choice point} and searches over schedules:
    depth-first, firing one ready event at a time through the
    {!Eventsim.Sim.fire} scheduler hook, restoring states through
    {!Snapshot.encode}/[decode], and pruning states already seen
    under a canonical state digest. Within its budgets it turns the
    paper's §2.3 claims into exhaustively checked facts: ABRR and
    full-mesh gadgets quiesce under {e every} schedule, violate no
    runtime invariant, agree with the full-visibility exit reference and
    reach a single terminal state; the TBRR MED gadget yields a concrete
    dispute cycle as a replayable counterexample.

    {2 Choice-point model}

    In {!Async} mode (the default) {e any} pending event may fire next —
    messages and timers are delayed arbitrarily, the classic asynchronous
    model under which RFC 3345 oscillation is defined; absolute
    timestamps are abstracted away (the clock only ratchets forward).
    In {!Timed} mode only events sharing the earliest timestamp are
    ready — the search covers exactly the tie-breaking freedom of the
    timed simulation. Optional fault choice points additionally
    fail/recover a router at any state, budgeted by [max_faults].

    {2 Soundness notes}

    The visited-state digest is {e exact} up to provably dead values: it
    erases the clock and event timestamps (Async mode — that is the
    asynchronous abstraction itself), renumbers event [seq]s
    canonically, zeroes measurement counters and the unused RNG word,
    canonicalizes inbox order across sources (a processing batch drains
    the whole inbox into disjoint per-source tables before any decision
    runs, so only same-source relative order is observable),
    and (when MRAI is off) drops quiesced session scaffolding whose
    [mrai_until] stamp is never consulted. It keeps add-paths path-ids
    verbatim, so no two states with different pending-withdrawal
    bindings ever merge — pruning never hides behavior, it only skips
    re-exploring it. Terminal states are compared under a separate,
    coarser digest that erases path-id {e assignments} (allocation order
    is schedule-dependent; at quiescence no dangling id references
    exist) and sorts RIB insertion order away: schedule-isomorphic
    terminals compare equal, genuinely different routing outcomes do
    not.

    The partial-order reduction is a sleep-set scheme over write
    footprints: [Deliver]/[Process]/[Mrai_flush]/[Purge]/[Establish]
    events write only their target router (message sends only append to
    the event queue, which the digest compares as a set), so events at
    distinct routers commute; [Op]/[Thunk] payloads and fault choices
    are global and never commute. Sleep sets prune redundant
    {e transitions} only — every reachable state is still visited — so
    [Safe] verdicts are unaffected; a dispute cycle's closing edge can
    in principle be slept, so a cycle hunt that comes back clean with
    POR enabled should be confirmed with [~por:false] (the gadget CI
    gates do). *)

type mode =
  | Async  (** any pending event may fire; timestamps abstracted *)
  | Timed  (** only earliest-timestamp events are ready *)

type fault = Fail of int | Recover of int

(** One edge of a schedule: fire the pending event carrying this [seq],
    or inject a fault. *)
type choice = Fire of int | Inject of fault

type limits = {
  max_depth : int;  (** truncate any single schedule past this length *)
  max_states : int;  (** abort the whole search past this many states *)
  max_faults : int;  (** fault choice points per schedule (default 0) *)
}

val default_limits : limits
(** depth 20_000, states 200_000, faults 0. *)

type stats = {
  mutable states : int;  (** distinct canonical states visited *)
  mutable transitions : int;  (** events fired + faults injected *)
  mutable terminals : int;  (** quiescent states reached *)
  mutable pruned_visited : int;  (** revisits cut by the digest table *)
  mutable pruned_sleep : int;  (** transitions cut by sleep sets *)
  mutable max_depth_seen : int;
  mutable truncated : int;  (** schedules cut by [max_depth] *)
}

type violation =
  | Dispute_cycle of { stem : int; period : int }
      (** the schedule returns to a state [period] choices earlier —
          repeating those choices forever is a non-converging run *)
  | Invariant_violation of string  (** {!Verify.Invariant} raised *)
  | Forwarding_loop of { prefix : Netaddr.Prefix.t; cycle : int list }
      (** data-plane loop at a quiescent state *)
  | Exit_mismatch of {
      prefix : Netaddr.Prefix.t;
      router : int;
      got : int option;
      reference : int option;
    }  (** quiescent exit differs from the full-mesh reference *)
  | Divergent_terminals of { other : string }
      (** two schedules quiesced in states that differ even under the
          isomorphism-tolerant terminal digest *)

type counterexample = {
  violation : violation;
  schedule : choice list;  (** from the initial state to the violation *)
  state_digest : string;  (** canonical digest of the violating state *)
  snap_digest : string option;
      (** full {!Snapshot.digest} of the violating state, for replay
          verification and {!Snapshot.Bisect} composition *)
}

type verdict =
  | Safe of { complete : bool; terminal : string option }
      (** no violation found. [complete]: the bounded state space was
          exhausted (no depth truncation, no state-budget abort) — for a
          finite-state config this is a proof over {e all} schedules.
          [terminal] is the single terminal digest (absent when fault
          injection was on, which legitimately diversifies terminals) *)
  | Unsafe of counterexample

type result = { verdict : verdict; stats : stats }

(** What to explore: a way to rebuild the initial state (injections
    pending, nothing processed), the prefixes whose data plane is
    walked at quiescent states, and optional per-prefix full-mesh
    reference exits ({!Verify.Deflection.full_mesh_exits}). *)
type scenario = {
  fresh : unit -> Abrr_core.Network.t;
  prefixes : Netaddr.Prefix.t list;
  reference : (Netaddr.Prefix.t * int option array) list;
}

val scenario_of_gadget : ?check_exits:bool -> Abrr_core.Gadgets.t -> scenario
(** [check_exits] (default true) populates [reference] from the static
    full-visibility model. *)

val explore :
  ?mode:mode ->
  ?por:bool ->
  ?invariants:bool ->
  ?limits:limits ->
  scenario ->
  result
(** Search the schedule space from the scenario's initial state.
    [por] (default true) enables sleep-set pruning; [invariants]
    (default true) runs {!Verify.Invariant.check_now} at every distinct
    state. @raise Invalid_argument if a [Thunk] event is pending (its
    closure cannot be digested — schedule [at_op] operations instead). *)

(** {1 Schedule execution} *)

val ready :
  mode:mode ->
  Abrr_core.Network.t ->
  Abrr_core.Network.payload Eventsim.Sim.event list
(** The current choice point's ready events, in canonical (time, seq)
    order. *)

val apply : Abrr_core.Network.t -> choice -> unit
(** Execute one choice: {!Eventsim.Sim.fire} the event, or inject the
    fault at the current state. *)

val replay : Abrr_core.Network.t -> choice list -> unit
(** [apply] each choice in order — deterministic, so replaying a
    counterexample's schedule from a fresh scenario state reproduces the
    violating state exactly. *)

val random_run :
  ?mode:mode ->
  ?max_steps:int ->
  seed:int ->
  Abrr_core.Network.t ->
  (int, string) Stdlib.result
(** Drive the network to quiescence firing uniformly-random ready
    events (a random fair schedule — every pending event is eventually
    fired) from a dedicated [seed]ed stream that leaves the simulation's
    own RNG untouched. [Ok steps] on quiescence; [Error _] if
    [max_steps] (default 100_000) ran out. *)

(** {1 State digests} *)

val state_digest : mode:mode -> Abrr_core.Network.t -> string
(** Canonical schedule-search digest of the current state: the hex MD5
    of a normalised snapshot encoding ({!Snapshot.digest_with}), read
    off the live tables. See the soundness notes above for what is
    abstracted.
    @raise Invalid_argument on a pending [Thunk]. *)

val terminal_digest : Abrr_core.Network.t -> string
(** Isomorphism-tolerant digest for comparing {e quiescent} states
    across schedules: additionally erases path-id assignments and RIB
    insertion order. Only meaningful when no events are pending. *)

val verify_counterexample :
  scenario -> mode:mode -> counterexample -> (unit, string) Stdlib.result
(** Rebuild the initial state, {!replay} the counterexample's schedule
    and check the violating state's digests match — the determinism
    guarantee behind "replayable". *)

(** {1 Counterexample files}

    Plain-text, line-oriented: a magic/version line, free-form [key
    value] metadata (the CLI stores the gadget name and exploration
    flags, letting [abrr_sim replay] rebuild the scenario), the
    violation, both digests and the choice list. *)
module Ce : sig
  type t = { meta : (string * string) list; ce : counterexample }

  val to_string : t -> string
  val of_string : string -> (t, string) Stdlib.result
  (** Never raises on malformed input. *)

  val save : t -> path:string -> (unit, string) Stdlib.result
  val load : path:string -> (t, string) Stdlib.result
end

val pp_violation : Format.formatter -> violation -> unit
val pp_stats : Format.formatter -> stats -> unit
