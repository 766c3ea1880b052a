(** Deterministic discrete-event simulation core.

    Events scheduled for the same instant fire in scheduling order, and
    the random stream is owned by the simulator (a serializable
    splitmix64 generator, {!Prng}), so a run is a pure function of
    (program, seed).

    The simulator is polymorphic in its event payload ['p]. Payloads are
    plain data; a single {e executor} function installed on the
    simulator interprets them when events fire. Two entry points cover
    the two uses:

    - {!create} gives a [(unit -> unit) t] whose executor just calls the
      payload — closure-based scheduling, exactly the historical API;
    - {!create_reified} gives a ['p t] with no executor yet (install one
      with {!set_exec}); schedulers that need their pending queue to
      round-trip through the checkpoint codec ({!Snapshot}) use this
      with a first-order payload type.

    The simulator carries two observability hooks, both off by default
    and both O(1) per event when enabled (see OBSERVABILITY.md):

    - a structured {{!Trace}trace sink} — a bounded ring buffer fed a
      sampled stream of per-event entries (kind, actor, simulated time,
      queue depth);
    - {{!phase}phase timers} — named wall-clock/event/sim-time
      accumulators bracketing the caller's phases (snapshot feed, trace
      replay, ...). *)

type 'p t

type outcome =
  | Quiescent  (** event queue drained *)
  | Deadline  (** [until] reached with events still pending *)
  | Event_limit  (** [max_events] processed — used by oscillation detectors *)

val create : ?seed:int -> unit -> (unit -> unit) t
(** A fresh simulator at time {!Time.zero} with an empty queue, whose
    executor runs each payload as a thunk. [seed] initialises the
    simulation-owned random stream (default 42). *)

val create_reified : ?seed:int -> unit -> 'p t
(** Like {!create} but with a caller-chosen payload type and {e no}
    executor; {!run} raises until {!set_exec} installs one. Lets a
    scheduler whose payloads reference the scheduler itself tie the
    knot: build the simulator, build the scheduler around it, then
    install the executor. *)

val set_exec : 'p t -> ('p -> unit) -> unit
(** Install (or replace) the executor that {!run} applies to each
    event's payload. *)

val now : 'p t -> Time.t
(** Current simulated time: the timestamp of the event being (or last)
    processed. *)

val rng : 'p t -> Prng.t
(** The simulation-owned random stream. Draw from this (never from the
    global [Random]) to keep runs reproducible. *)

val push : 'p t -> kind:int -> actor:int -> detail:int -> time:Time.t -> 'p -> unit
(** Schedule a payload to fire at absolute [time]. [kind], [actor] and
    [detail] are free-form integers recorded by the trace sink when one
    is attached; {!Abrr_core.Network} assigns kinds for message
    delivery, router-local timers and external injections — see
    [Network.trace_kind_name]. Every scheduling goes through here; none
    of the arguments is optional, so the call boxes nothing, which is
    why the network's per-delivery scheduler calls it directly.
    @raise Invalid_argument if [time] is in the past. *)

val schedule : 'p t -> ?kind:int -> ?actor:int -> ?detail:int -> delay:Time.t ->
  'p -> unit
(** {!push} at [delay] after {!now}, with [kind], [actor] and [detail]
    defaulting to [0], [-1] and [0].
    @raise Invalid_argument on negative delay. *)

val schedule_at : 'p t -> ?kind:int -> ?actor:int -> ?detail:int -> time:Time.t ->
  'p -> unit
(** {!push} with {!schedule}'s defaults.
    @raise Invalid_argument if [time] is in the past. *)

val pending : 'p t -> int
(** Number of events waiting in the queue. *)

val events_processed : 'p t -> int
(** Total events processed since {!create}. *)

val set_probe : 'p t -> every:int -> (unit -> unit) -> unit
(** Install a callback invoked after every [every] processed events —
    the hook the runtime invariant checker ({!Verify.Invariant}) hangs
    off. At most one probe is active; costs one integer decrement per
    event when set, one [None] test when not.
    @raise Invalid_argument if [every < 1]. *)

val clear_probe : 'p t -> unit

val run : ?until:Time.t -> ?max_events:int -> 'p t -> outcome
(** Process events until the queue drains, simulated time would exceed
    [until], or [max_events] have been processed (counted from this call).
    Can be called repeatedly to continue a paused simulation.
    @raise Invalid_argument if no executor is installed. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Checkpoint support}

    Everything the checkpoint codec needs to capture a simulator
    mid-run and rebuild it bit-for-bit: the scalar dispatch state
    (clock, sequence counter, processed count, random-stream word) plus
    the pending queue as data. Only meaningful on reified simulators —
    a closure payload cannot round-trip. *)

type 'p event = {
  time : Time.t;  (** absolute firing time *)
  seq : int;  (** global scheduling sequence — tie-break at equal times *)
  kind : int;
  actor : int;
  detail : int;
  payload : 'p;
}

val next_seq : 'p t -> int
(** The sequence number the next scheduled event will receive. *)

val pending_events : 'p t -> 'p event list
(** The pending queue, sorted by (time, seq). Non-destructive. *)

val next_time : 'p t -> Time.t option
(** Timestamp of the earliest pending event, [None] on an empty queue.
    O(1) — the sharded engine polls this per synchronization window. *)

(** {2 Sharded-scheduler hooks}

    Raw queue surgery for {!Sharded}: a shard simulator executes a
    conservative window with {e provisional} sequence numbers, and the
    barrier replay then rewrites them to their merged global values and
    routes cross-shard deliveries in. These bypass the usual scheduling
    checks — ordinary schedulers never need them. *)

val set_exec_event : 'p t -> ('p event -> unit) -> unit
(** Like {!set_exec} but the executor receives the whole event (time,
    seq, kind, actor, detail, payload) — the hook the sharded engine
    uses to log each executed event for its barrier replay. *)

val set_next_seq : 'p t -> int -> unit
(** Overwrite the sequence counter (per-window provisional base). *)

val push_event : 'p t -> 'p event -> unit
(** Enqueue a fully-formed event keeping its [seq] — a barrier-merged
    cross-shard delivery whose global sequence number is already
    assigned. No past-time check: the barrier proves [time] lies at or
    beyond the safe horizon. *)

val map_pending : 'p t -> ('p event -> 'p event) -> unit
(** Rewrite every pending event in place. [f] must preserve the
    (time, seq) order of the pending set — true of the barrier's
    provisional-to-merged seq maps, which are monotone per shard. *)

val probe_advance : 'p t -> int -> unit
(** Advance the {!set_probe} countdown by [n] processed events, invoking
    the probe once per due firing at the current (barrier) state. Keeps
    sharded runs' probe firing {e counts} identical to serial runs';
    no-op when no probe is installed. *)

val fire : 'p t -> seq:int -> 'p event
(** Scheduler hook for the schedule explorer ({!Explore}): remove the
    pending event with sequence number [seq] — {e whatever its
    timestamp} — and dispatch it exactly as {!run} would (trace-sink
    sampling, executor, probe countdown all included). The clock
    advances to [max (now t) ev.time], never backwards: firing an event
    out of timestamp order models an asynchronous schedule where that
    message or timer was delayed arbitrarily. Returns the fired event.
    @raise Invalid_argument if no pending event carries [seq] or no
    executor is installed. *)

val restore : 'p t -> clock:Time.t -> next_seq:int -> processed:int ->
  rng_state:int64 -> 'p event list -> unit
(** Overwrite the simulator's dispatch state: drop any pending events,
    set the clock / sequence counter / processed count / random stream,
    and enqueue the given events with their recorded [seq]s intact (so
    same-instant ordering is exactly as captured). Probe, sink and phase
    accumulators are untouched — reattach those separately. *)

(** {1 Structured trace sink}

    A sink observes the event dispatch loop: every processed event
    counts as {e seen}; every [sample_every]-th seen event is {e
    recorded} into a fixed-capacity ring buffer (oldest entries are
    overwritten). Memory is bounded by [capacity] for the lifetime of
    the sink and recording is a handful of integer stores — attaching a
    sink does not perturb simulation results, only observes them. *)

module Trace : sig
  type entry = {
    time : Time.t;  (** simulated time of the event *)
    kind : int;  (** scheduler-supplied event kind ([0] = unknown) *)
    actor : int;  (** scheduler-supplied actor, e.g. a router id ([-1] = none) *)
    depth : int;  (** queue depth right after the event was popped *)
    detail : int;  (** scheduler-supplied payload, e.g. a batch size *)
  }

  type sink

  val make : ?capacity:int -> ?sample_every:int -> unit -> sink
  (** A detached sink. [capacity] bounds the ring buffer (default 4096
      entries); [sample_every] records every n-th seen event (default 1
      = record all).
      @raise Invalid_argument if either is [< 1]. *)

  val capacity : sink -> int
  val sample_every : sink -> int

  val seen : sink -> int
  (** Events dispatched while this sink was attached. *)

  val recorded : sink -> int
  (** Entries ever recorded (may exceed {!capacity}; the ring keeps the
      newest {!capacity} of them). *)

  val entries : sink -> entry list
  (** Retained entries, oldest first. Non-destructive. *)

  val clear : sink -> unit
  (** Drop retained entries and reset the counters. *)

  val until_sample : sink -> int
  (** Events left before the next one is recorded. *)

  val restore :
    capacity:int -> sample_every:int -> until_sample:int -> seen:int ->
    recorded:int -> entry list -> sink
  (** A sink observationally identical to the one these accessors and
      {!entries} read: the checkpoint codec's restore (the BENCH
      queue-depth summary derives from sink contents, so byte-identical
      resumed records need the ring to survive it).
      @raise Invalid_argument if there are more entries than [capacity],
      or as {!make}. *)

  val observe : sink -> entry -> unit
  (** Feed the sink one dispatched event: count it as seen, record it if
      the sampling countdown says so — exactly what the run loop does
      per event. The sharded barrier replay uses this to reproduce the
      serial entry stream; ordinary callers never need it. *)
end

val set_sink : 'p t -> Trace.sink -> unit
(** Attach a sink (at most one; replaces any previous one). Costs one
    [option] test per event when absent. *)

val clear_sink : 'p t -> unit
val sink : 'p t -> Trace.sink option

(** {1 Phase timers}

    Named accumulators for the caller's coarse phases. Repeated calls
    under the same name accumulate; nested phases both accumulate (the
    outer includes the inner). *)

type phase_stat = {
  calls : int;  (** number of [phase] invocations under this name *)
  cpu_s : float;  (** accumulated processor seconds ([Sys.time]) *)
  events : int;  (** simulator events processed inside the phase *)
  sim_advance : Time.t;  (** simulated time elapsed inside the phase *)
}

val phase : 'p t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f ()] and charges its processor time, event
    count and simulated-time advance to [name]. Exceptions propagate
    (the partial phase is still accounted). *)

val phase_stats : 'p t -> (string * phase_stat) list
(** All phases in first-use order. *)

val reset_phases : 'p t -> unit
