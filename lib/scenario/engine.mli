(** Scenario engine: the bookkeeping every adversarial / operational
    drill ({!Catalog}) shares — named pass/fail checks, runtime-invariant
    supervision ({!Verify.Invariant}) with violation counting instead of
    aborting, anomaly-detection counts, and a per-scenario result record
    that renders as a {!Verify.Report} so [abrr_sim scenario] speaks the
    established [--expect]/exit-code contract. *)

open Abrr_core
open Eventsim

(** One named assertion evaluated during a scenario. *)
type check = { label : string; ok : bool; detail : string }

type result = {
  name : string;  (** catalog name, e.g. ["hijack"] *)
  scheme : string;  (** scheme label the scenario ran under *)
  checks : check list;  (** in evaluation order *)
  invariant_violations : int;
  first_violation : string option;
  detections : int;  (** anomaly-detector findings ({!Verify.Anomaly}) *)
  counters : Counters.t;  (** network-total counters at scenario end *)
  events : int;  (** simulator events processed *)
  sim_end : Time.t;  (** simulated clock at scenario end *)
}

val passed : result -> bool
(** Every check ok, zero invariant violations, and the simulation
    quiesced within budget. *)

val summary_line : result -> string
(** One line: name, scheme, pass/fail, check count, violations. *)

(** {1 Driving a scenario} *)

type run
(** Mutable in-flight state around one {!Abrr_core.Network.t}. *)

val start : Network.t -> run
val net : run -> Network.t

val quiesce : ?until:Time.t -> ?max_events:int -> run -> unit
(** Run the simulation with the runtime invariants installed. A
    {!Verify.Invariant.Violation} is counted (first message kept) and
    the run resumes without the probe rather than aborting — a scenario
    wants to observe the blast radius, not die at first blood. After the
    run an exhaustive {!Verify.Invariant.check_now} sweep is performed
    (also counted, not raised). Default [max_events] 50M; exhausting it
    fails the scenario ({!passed}). *)

val check : run -> string -> bool -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [check run label ok fmt ...] records one named assertion with a
    formatted detail string. *)

val set_detections : run -> int -> unit

val coverage_holes : run -> Netaddr.Prefix.t array -> int
(** Number of (up router, prefix) pairs with no best route — 0 means
    every router resolves every given prefix (the zero-downtime
    criterion of the §2.4 migration and failover drills). *)

val finish : run -> name:string -> scheme:string -> result

(** {1 Rendering} *)

val report : result list -> Verify.Report.t
(** One finding per check plus one invariant-violation finding per
    scenario (codes ["SCN-FAIL"], ["SCN-INVARIANT"]); feeds the CLI's
    report-based exit codes and [--json]. *)
