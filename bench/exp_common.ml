(* Shared setup for the figure-reproduction experiments: one Tier-1
   model (13 clusters, 25 peer ASes with 8 peering points, §4) reused by
   Figures 6, 7 and the §4.2 update accounting. All experiments are
   scaled down in prefix count (the compared quantities scale linearly)
   and report their own workload parameters. *)

module N = Abrr_core.Network
module R = Abrr_core.Router
module T = Topo.Isp_topo
module RG = Topo.Route_gen
module TG = Topo.Trace_gen
module E = Metrics.Emit
module Sim = Eventsim.Sim

type scale = { n_prefixes : int; trace_events : int }

let default_scale = { n_prefixes = 1000; trace_events = 1200 }

let tier1_topo () =
  T.generate
    (T.spec ~pops:13 ~routers_per_pop:8 ~peer_ases:25 ~peering_points_per_as:8 ())

let tier1_table topo scale = RG.generate topo (RG.spec ~n_prefixes:scale.n_prefixes ())

let tier1_trace table scale =
  TG.generate table
    (TG.spec ~events:scale.trace_events ~duration:(Eventsim.Time.days 14)
       ~jitter:(Eventsim.Time.ms 80) ~single_point_share:0.35 ~flap_share:0.45 ())

(* --decision naive disables the incremental engine in every experiment
   this binary runs (bench/main.ml); the gated record contents must be
   byte-identical either way — that identity is CI-checked on the
   deterministic profile. *)
let decision_mode = ref Abrr_core.Config.Incremental

(* The paper's testbed avoids MED oscillation by configuration
   (footnote 1); we model that with always-compare MED. *)
let config topo scheme =
  {
    (T.config ~med_mode:Bgp.Decision.Always_compare
       ~proc_delay:(Eventsim.Time.ms 150) ~proc_jitter:(Eventsim.Time.ms 400)
       ~scheme topo)
    with
    Abrr_core.Config.decision = !decision_mode;
  }

(* {2 JSON emission (OBSERVABILITY.md)}

   Every experiment writes a BENCH_<exp>.json record alongside its
   table. [--out DIR] redirects the files, [--json] additionally echoes
   each record to stdout (both parsed by bench/main.ml). *)

let out_dir = ref "."
let echo_json = ref false

(* {2 Run-level parallelism ([--jobs N])}

   Every experiment expresses its sweep as [map_points] over a list of
   independent points (schemes, knob values, trials). With [jobs] > 1
   the points fan out across a domain pool; each point still runs its
   whole simulation inside one domain (determinism untouched) and the
   results come back in input order, so tables and BENCH_*.json records
   are identical to a serial run except for the ungated wall-clock
   fields. Point functions must not touch shared mutable state — they
   return values and the caller assembles rows/records after the merge. *)

let jobs = ref 1
let map_points f points = Parallel.Pool.map ~jobs:!jobs f points

let emit record =
  let path = Filename.concat !out_dir (E.filename record.E.experiment) in
  E.write_file path record;
  if !echo_json then print_string (E.to_string (E.record_to_json record));
  Printf.printf "[bench record -> %s]\n\n%!" path

type run_result = {
  label : string;
  net : N.t;
  rr_ids : int list;
  client_ids : int list;
  sink : Sim.Trace.sink;  (** sampled event trace of the whole run *)
  wall_s : float;
}

let reflectors net n =
  List.filter
    (fun i -> R.is_trr (N.router net i) || R.is_arr (N.router net i))
    (List.init n Fun.id)

(* Every experiment configuration passes the static analyzer before a
   single event is simulated; an invalid setup aborts with the report. *)
let precheck ~label cfg =
  let report = Verify.Static.analyze cfg in
  if not (Verify.Report.ok report) then begin
    prerr_string (Verify.Report.render report);
    failwith (label ^ ": static configuration check failed")
  end

(* Feed the snapshot, reset counters, then replay the trace: the paper's
   §4 methodology (Figure 7 counts trace-phase updates only). Runtime
   invariants (Verify.Invariant) stay on for the whole run. *)
let run_scheme ~label ~topo ~table ~trace scheme =
  let cfg = config topo scheme in
  precheck ~label cfg;
  let wall0 = Unix.gettimeofday () in
  let net = N.create cfg in
  let sim = N.sim net in
  (* Sampled structured trace + phase timers; both end up in the JSON
     record (queue-depth summary, per-phase CPU seconds). *)
  let sink = Sim.Trace.make ~capacity:4096 ~sample_every:64 () in
  Sim.set_sink sim sink;
  Verify.Invariant.install net;
  Sim.phase sim "snapshot" (fun () ->
      RG.inject_all table net;
      match N.run ~max_events:100_000_000 net with
      | Sim.Quiescent -> ()
      | o ->
        Printf.eprintf "warning: %s snapshot ended with %s\n" label
          (Format.asprintf "%a" Sim.pp_outcome o));
  for i = 0 to N.router_count net - 1 do
    Abrr_core.Counters.reset (N.counters net i)
  done;
  Sim.phase sim "trace" (fun () ->
      TG.schedule net trace;
      match N.run ~max_events:200_000_000 net with
      | Sim.Quiescent -> ()
      | o ->
        Printf.eprintf "warning: %s trace ended with %s\n" label
          (Format.asprintf "%a" Sim.pp_outcome o));
  Verify.Invariant.check_now net;
  Verify.Invariant.uninstall net;
  let rr_ids = reflectors net topo.T.n_routers in
  let client_ids =
    List.filter (fun i -> not (List.mem i rr_ids)) (List.init topo.T.n_routers Fun.id)
  in
  { label; net; rr_ids; client_ids; sink; wall_s = Unix.gettimeofday () -. wall0 }

let stats ids f =
  Metrics.Summary.of_list (List.map (fun i -> float_of_int (f i)) ids)

let min_avg_max (s : Metrics.Summary.t) =
  ( int_of_float s.Metrics.Summary.min,
    int_of_float s.Metrics.Summary.mean,
    int_of_float s.Metrics.Summary.max )

let abrr_ap_counts = [ 1; 2; 4; 8; 16; 32 ]

let fi = float_of_int

let scale_knobs scale =
  [ ("n_prefixes", fi scale.n_prefixes); ("trace_events", fi scale.trace_events) ]

(* The JSON view of a completed [run_scheme] result: trace-phase counter
   totals (counters were reset at the snapshot/trace boundary), phase
   CPU breakdown, and a queue-depth summary from the sampled trace. *)
let json_run ?scheme ?knobs r metrics =
  let sim = N.sim r.net in
  let summaries =
    match Sim.Trace.entries r.sink with
    | [] -> []
    | es ->
      [ ("queue_depth",
         Metrics.Summary.of_ints (List.map (fun e -> e.Sim.Trace.depth) es)) ]
  in
  E.run ~label:r.label ?scheme ?knobs ~wall_s:r.wall_s
    ~sim_s:(Eventsim.Time.to_sec (Sim.now sim))
    ~events:(Sim.events_processed sim)
    ~counters:(Abrr_core.Counters.to_fields (N.total_counters r.net))
    ~summaries
    ~phases:(List.map (fun (n, st) -> (n, st.Sim.cpu_s)) (Sim.phase_stats sim))
    metrics
