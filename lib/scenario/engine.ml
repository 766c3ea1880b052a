open Abrr_core
open Eventsim
module Invariant = Verify.Invariant
module Report = Verify.Report

type check = { label : string; ok : bool; detail : string }

type result = {
  name : string;
  scheme : string;
  checks : check list;
  invariant_violations : int;
  first_violation : string option;
  detections : int;
  counters : Counters.t;
  events : int;
  sim_end : Time.t;
}

type run = {
  r_net : Network.t;
  mutable r_violations : int;
  mutable r_first_violation : string option;
  mutable r_checks_rev : check list;
  mutable r_detections : int;
  mutable r_event_limited : bool;
}

let start net =
  {
    r_net = net;
    r_violations = 0;
    r_first_violation = None;
    r_checks_rev = [];
    r_detections = 0;
    r_event_limited = false;
  }

let net run = run.r_net

let violation run msg =
  run.r_violations <- run.r_violations + 1;
  if run.r_first_violation = None then run.r_first_violation <- Some msg

let check run label ok fmt =
  Format.kasprintf
    (fun detail -> run.r_checks_rev <- { label; ok; detail } :: run.r_checks_rev)
    fmt

let set_detections run d = run.r_detections <- d

let quiesce ?until ?(max_events = 50_000_000) run =
  Invariant.install run.r_net;
  let outcome =
    try Network.run ?until ~max_events run.r_net
    with Invariant.Violation msg ->
      violation run msg;
      (* Resume without the probe: the scenario wants the end state, not
         an abort at the first inconsistency. *)
      Invariant.uninstall run.r_net;
      Network.run ?until ~max_events run.r_net
  in
  Invariant.uninstall run.r_net;
  (match outcome with
  | Sim.Event_limit -> run.r_event_limited <- true
  | Sim.Quiescent | Sim.Deadline -> ());
  match Invariant.check_now run.r_net with
  | () -> ()
  | exception Invariant.Violation msg -> violation run msg

let coverage_holes run prefixes =
  let holes = ref 0 in
  for i = 0 to Network.router_count run.r_net - 1 do
    if Router.is_up (Network.router run.r_net i) then
      Array.iter
        (fun p ->
          match Network.best run.r_net ~router:i p with
          | Some _ -> ()
          | None -> incr holes)
        prefixes
  done;
  !holes

let finish run ~name ~scheme =
  if run.r_event_limited then
    check run "quiescence" false "event budget exhausted before quiescence";
  {
    name;
    scheme;
    checks = List.rev run.r_checks_rev;
    invariant_violations = run.r_violations;
    first_violation = run.r_first_violation;
    detections = run.r_detections;
    counters = Network.total_counters run.r_net;
    events = Sim.events_processed (Network.sim run.r_net);
    sim_end = Sim.now (Network.sim run.r_net);
  }

let passed r =
  r.invariant_violations = 0 && List.for_all (fun c -> c.ok) r.checks

let summary_line r =
  Printf.sprintf "%-14s [%s] %s: %d checks, %d violations, %d detections"
    r.name r.scheme
    (if passed r then "pass" else "FAIL")
    (List.length r.checks) r.invariant_violations r.detections

let report results =
  List.concat_map
    (fun r ->
      let chk = "scenario." ^ r.name in
      List.map
        (fun c ->
          if c.ok then Report.pass chk "[%s] %s: %s" r.scheme c.label c.detail
          else
            Report.fail ~code:"SCN-FAIL" chk "[%s] %s: %s" r.scheme c.label
              c.detail)
        r.checks
      @ [
          (if r.invariant_violations = 0 then
             Report.pass chk "[%s] no invariant violations" r.scheme
           else
             Report.fail ~code:"SCN-INVARIANT" chk
               "[%s] %d invariant violation%s (first: %s)" r.scheme
               r.invariant_violations
               (if r.invariant_violations = 1 then "" else "s")
               (Option.value r.first_violation ~default:"?"));
        ])
    results
