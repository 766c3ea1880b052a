(* Memory-compact RIB architecture at scale (SCALING.md): one ABRR
   network fed a full route table, then driven by a two-week MRT trace
   streamed off disk — never materialised — while sampling process peak
   RSS and trace throughput.

   Emits BENCH_scale.json. Deterministic quantities (counters, RIB
   totals, trace composition, simulated time, events) gate exactly
   against bench/baseline/scale/. Figures from the host clock or the
   allocator (peak RSS, bytes per placement, updates/sec) are recorded
   ungated: a fall-back to full recomputation shows exactly, on any
   host, as decisions_full rising. Per-event latency and per-layer
   timing belong to benchmark/.

   Default knobs are CI-bounded. The full paper-scale run (416 K
   prefixes x 1008 routers x 25 peer ASes) is the same experiment with
   the --scale-* flags turned up — the recipe is in SCALING.md. *)

open Exp_common
module T = Topo.Isp_topo
module TG = Topo.Trace_gen
module Mrt = Topo.Mrt

(* --scale-* knobs (bench/main.ml) *)
let pops = ref 13
let rpp = ref 8
let peer_ases = ref 25
let n_prefixes = ref 4000
let trace_events = ref 1200
let aps = ref 8
let trace_path = ref "" (* "" = fresh temp file *)

let kb_to_mb kb = float_of_int kb /. 1024.

let run_on mrt_file =
  let scale_c = Abrr_core.Counters.create () in
  let wall0 = Unix.gettimeofday () in
  let topo =
    T.generate
      (T.spec ~pops:!pops ~routers_per_pop:!rpp ~peer_ases:!peer_ases
         ~peering_points_per_as:8 ())
  in
  let table = RG.generate topo (RG.spec ~n_prefixes:!n_prefixes ()) in
  let n_routes = RG.total_routes table in
  Printf.printf
    "Workload: %d routers, %d prefixes, %d eBGP routes from %d peer ASes;\n\
     trace: %d routing events over 14 simulated days, streamed from disk.\n\n%!"
    topo.T.n_routers !n_prefixes n_routes !peer_ases !trace_events;
  (* Generate the trace and park it on disk: the replay below must not
     depend on the in-memory event list. *)
  let local_as = Bgp.Asn.of_int 65000 in
  let announce_count, withdraw_count =
    let events = tier1_trace table { n_prefixes = !n_prefixes;
                                     trace_events = !trace_events } in
    Mrt.save mrt_file ~local_as events;
    TG.action_count events
  in
  let scheme = T.abrr_scheme ~aps:!aps ~arrs_per_ap:2 topo in
  let label = Printf.sprintf "ABRR %d APs" !aps in
  let cfg = config topo scheme in
  precheck ~label cfg;
  let net = N.create cfg in
  let sim = N.sim net in
  let sink = Sim.Trace.make ~capacity:4096 ~sample_every:64 () in
  Sim.set_sink sim sink;
  (* Feed: the full table converges once; this is where RIB residency
     peaks, so sample RSS right after. *)
  Sim.phase sim "feed" (fun () ->
      RG.inject_all table net;
      match N.run ~max_events:max_int net with
      | Sim.Quiescent -> ()
      | o ->
        failwith
          (Format.asprintf "scale: feed did not converge (%a)" Sim.pp_outcome o));
  Abrr_core.Counters.sample_mem scale_c;
  let feed_rss_kb = scale_c.Abrr_core.Counters.mem_peak_kb in
  for i = 0 to N.router_count net - 1 do
    Abrr_core.Counters.reset (N.counters net i)
  done;
  (* Trace: stream the MRT file through the simulator in constant
     memory. *)
  let trace_wall0 = Unix.gettimeofday () in
  Sim.phase sim "trace" (fun () ->
      match Mrt.open_stream mrt_file with
      | Error e -> failwith ("scale: " ^ mrt_file ^ ": " ^ e)
      | Ok stream ->
        Fun.protect
          ~finally:(fun () -> Mrt.close_stream stream)
          (fun () ->
            match TG.replay ~chunk:256 net (fun () -> Mrt.next stream) with
            | Ok Sim.Quiescent -> ()
            | Ok o ->
              failwith
                (Format.asprintf "scale: trace ended with %a" Sim.pp_outcome o)
            | Error e -> failwith ("scale: replay: " ^ e)));
  let trace_wall = Unix.gettimeofday () -. trace_wall0 in
  Abrr_core.Counters.sample_mem scale_c;
  (* Residency accounting (SCALING.md, "Bytes per route") *)
  let ids = List.init topo.T.n_routers Fun.id in
  let sum f = List.fold_left (fun acc i -> acc + f (N.router net i)) 0 ids in
  let loc_rib_total = sum R.loc_rib_entries in
  let rib_in_total = sum R.rib_in_entries in
  let rib_out_total = sum (fun r -> R.rib_out_entries r + R.rib_out_client_entries r) in
  let ebgp_total = sum R.ebgp_entries in
  let placements = loc_rib_total + rib_in_total + rib_out_total + ebgp_total in
  let interned = Bgp.Route.interned_attrs () in
  let peak_kb = scale_c.Abrr_core.Counters.mem_peak_kb in
  let bytes_per_placement =
    if placements = 0 then 0.
    else float_of_int peak_kb *. 1024. /. float_of_int placements
  in
  (* [scale_c] holds only the RSS samples: they stay out of the gated
     counters and are recorded below as ungated metrics. *)
  let total = N.total_counters net in
  let updates_per_sec =
    if trace_wall > 0. then
      float_of_int total.Abrr_core.Counters.updates_received /. trace_wall
    else 0.
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let knobs =
    [
      ("n_routers", fi topo.T.n_routers);
      ("n_prefixes", fi !n_prefixes);
      ("peer_ases", fi !peer_ases);
      ("trace_events", fi !trace_events);
      ("aps", fi !aps);
    ]
  in
  let m = E.metric ~unit_:"entries" in
  let u ?(unit_ = "") name v = E.metric ~unit_ ~gate:false name v in
  let jrun =
    E.run ~label ~scheme:"abrr" ~knobs ~wall_s
      ~sim_s:(Eventsim.Time.to_sec (Sim.now sim))
      ~events:(Sim.events_processed sim)
      ~counters:(Abrr_core.Counters.to_fields total)
      ~phases:(List.map (fun (n, st) -> (n, st.Sim.cpu_s)) (Sim.phase_stats sim))
      [
        m "loc_rib_total" (fi loc_rib_total);
        m "rib_in_total" (fi rib_in_total);
        m "rib_out_total" (fi rib_out_total);
        m "ebgp_total" (fi ebgp_total);
        m "route_placements" (fi placements);
        m "trace_announcements" (fi announce_count);
        m "trace_withdrawals" (fi withdraw_count);
        u ~unit_:"blocks" "interned_attr_blocks" (fi interned);
        u ~unit_:"kB" "feed_peak_rss_kb" (fi feed_rss_kb);
        u ~unit_:"kB" "peak_rss_kb" (fi peak_kb);
        u ~unit_:"B" "bytes_per_placement" bytes_per_placement;
        u ~unit_:"updates/s" "updates_per_sec" updates_per_sec;
      ]
  in
  emit { E.experiment = "scale"; runs = [ jrun ] };
  print_endline "== Memory-compact RIB at scale ==";
  Metrics.Table.print
    ~header:[ "quantity"; "value" ]
    [
      [ "route placements (all RIBs)"; Metrics.Table.fmt_int placements ];
      [ "  Loc-RIB / Adj-RIB-In / Adj-RIB-Out";
        Printf.sprintf "%s / %s / %s"
          (Metrics.Table.fmt_int loc_rib_total)
          (Metrics.Table.fmt_int rib_in_total)
          (Metrics.Table.fmt_int rib_out_total) ];
      [ "interned attribute blocks"; Metrics.Table.fmt_int interned ];
      [ "peak RSS (feed / end)";
        Printf.sprintf "%.1f / %.1f MB" (kb_to_mb feed_rss_kb) (kb_to_mb peak_kb) ];
      [ "bytes per placement"; Printf.sprintf "%.1f" bytes_per_placement ];
      [ "trace throughput"; Printf.sprintf "%.0f updates/s" updates_per_sec ];
    ];
  print_newline ()

(* The trace file is a temporary unless --scale-trace names one; the
   temporary goes away however the run ends. *)
let run () =
  if !trace_path <> "" then run_on !trace_path
  else
    let mrt_file = Filename.temp_file "abrr_scale" ".mrt" in
    Fun.protect ~finally:(fun () -> Sys.remove mrt_file) (fun () -> run_on mrt_file)
