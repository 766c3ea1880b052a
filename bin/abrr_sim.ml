(* abrr-sim: command-line front end to the ABRR simulator.

   Subcommands:
     simulate   run a synthetic Tier-1 workload under a chosen iBGP scheme
     bench      same workload, instrumented: emits a BENCH_sim.json record
     snapshot   run the workload up to an event boundary and checkpoint it
     resume     restore a checkpoint and run it to completion
     bisect     binary-search where two deterministic runs first diverge
     check      statically verify a configuration (no simulation)
     scenario   run the adversarial/operational scenario catalog
     gadget     run one of the Sec 2.3 anomaly gadgets
     trace      generate an MRT update trace (and optionally replay it)
     partition  print an address-partition layout *)

open Cmdliner
module C = Abrr_core.Config
module N = Abrr_core.Network
module R = Abrr_core.Router
module T = Topo.Isp_topo
module RG = Topo.Route_gen
module TG = Topo.Trace_gen

(* ---- shared options ------------------------------------------------ *)

let scheme_enum =
  Arg.enum
    [ ("full-mesh", `Full_mesh); ("tbrr", `Tbrr); ("tbrr-multi", `Tbrr_multi);
      ("tbrr-best-external", `Tbrr_be); ("confed", `Confed); ("rcp", `Rcp);
      ("abrr", `Abrr) ]

let scheme_t =
  Arg.(value & opt scheme_enum `Abrr & info [ "scheme" ] ~doc:"iBGP scheme: $(docv)."
         ~docv:"full-mesh|tbrr|tbrr-multi|abrr")

let med_enum =
  Arg.enum [ ("per-as", Bgp.Decision.Per_neighbor_as); ("always", Bgp.Decision.Always_compare) ]

let med_t =
  Arg.(value & opt med_enum Bgp.Decision.Always_compare
       & info [ "med" ] ~doc:"MED comparison mode ($(docv)).")

let pops_t = Arg.(value & opt int 8 & info [ "pops" ] ~doc:"Number of PoPs (= TBRR clusters).")
let rpp_t = Arg.(value & opt int 6 & info [ "routers-per-pop" ] ~doc:"Routers per PoP.")
let pas_t = Arg.(value & opt int 15 & info [ "peer-ases" ] ~doc:"Number of peer ASes.")
let points_t = Arg.(value & opt int 6 & info [ "points" ] ~doc:"Peering points per peer AS.")
let prefixes_t = Arg.(value & opt int 500 & info [ "prefixes" ] ~doc:"Number of prefixes.")
let aps_t = Arg.(value & opt int 8 & info [ "aps" ] ~doc:"ABRR address partitions.")
let arrs_t = Arg.(value & opt int 2 & info [ "arrs-per-ap" ] ~doc:"Redundant ARRs per AP.")
let events_t = Arg.(value & opt int 500 & info [ "events" ] ~doc:"Trace routing events.")
let seed_t = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.")
let mrai_t = Arg.(value & opt int 0 & info [ "mrai" ] ~doc:"MRAI timer in seconds (0 = off).")

(* Bad sizes and unwritable paths reach a library input validator
   (Isp_topo.spec, Route_gen.spec, Partition.uniform, Session_setup.spec)
   or a file open, which raise Invalid_argument or Sys_error.
   [validated] turns exactly those into a one-line usage error (exit
   124, as snapshot and resume report a bad file) instead of an uncaught
   exception (exit 125). It wraps the building of inputs only, never a
   simulation, so a library bug still surfaces as one. *)
let validated f =
  match f () with
  | v -> Ok v
  | exception (Invalid_argument msg | Sys_error msg) -> Error msg

let ( let@ ) r k = match r with Ok v -> k v | Error msg -> `Error (false, msg)

let build_topo pops rpp pas points seed =
  T.generate (T.spec ~pops ~routers_per_pop:rpp ~peer_ases:pas ~peering_points_per_as:points ~seed ())

let resolve_scheme topo aps arrs_per_ap = function
  | `Full_mesh -> C.Full_mesh
  | `Tbrr -> T.tbrr_scheme topo
  | `Tbrr_multi -> T.tbrr_scheme ~multipath:true topo
  | `Tbrr_be -> C.tbrr ~best_external:true topo.T.clusters
  | `Confed -> T.confed_scheme topo
  | `Rcp -> T.rcp_scheme topo
  | `Abrr -> T.abrr_scheme ~aps ~arrs_per_ap topo

(* The simulate/bench workload from one set of CLI knobs. snapshot,
   resume and bisect must rebuild bit-identical runs from the same
   flags, so all of them share this. [cfg] builds a fresh configuration
   per network; each of [schemes] is built once up front so that a bad
   knob is reported here rather than midway through a run. *)
let build_workload med pops rpp pas points prefixes aps arrs events seed mrai
    schemes =
  validated @@ fun () ->
  let topo = build_topo pops rpp pas points seed in
  let table = RG.generate topo (RG.spec ~n_prefixes:prefixes ~seed ()) in
  let trace =
    TG.generate table
      (TG.spec ~events ~duration:(Eventsim.Time.days 14) ~jitter:(Eventsim.Time.ms 80)
         ~seed ())
  in
  let cfg scheme =
    (* per-router processing phases: synchronized rounds can livelock
       confederations (and TBRR) on ties; real routers are never in
       lockstep *)
    T.config ~med_mode:med ~mrai:(Eventsim.Time.sec mrai)
      ~proc_delay:(Eventsim.Time.ms 150) ~proc_jitter:(Eventsim.Time.ms 400)
      ~scheme:(resolve_scheme topo aps arrs scheme)
      topo
  in
  List.iter (fun s -> ignore (cfg s)) schemes;
  (topo, table, trace, cfg)

(* Feed the eBGP snapshot, wait for convergence, reset the counters and
   pre-schedule the whole (reified) update trace — the run is then
   checkpointable at any trace-phase event boundary. Returns the event
   count at the trace-phase start. *)
let feed_and_schedule net table trace =
  RG.inject_all table net;
  ignore (N.run ~max_events:200_000_000 net);
  for i = 0 to N.router_count net - 1 do
    Abrr_core.Counters.reset (N.counters net i)
  done;
  TG.schedule net trace;
  Eventsim.Sim.events_processed (N.sim net)

(* ---- simulate ------------------------------------------------------ *)

let simulate scheme med pops rpp pas points prefixes aps arrs events seed mrai =
  let@ topo, table, trace, cfg =
    build_workload med pops rpp pas points prefixes aps arrs events seed mrai [ scheme ]
  in
  let net = N.create (cfg scheme) in
  RG.inject_all table net;
  let snapshot_outcome = N.run ~max_events:200_000_000 net in
  for i = 0 to N.router_count net - 1 do
    Abrr_core.Counters.reset (N.counters net i)
  done;
  TG.schedule net trace;
  let trace_outcome = N.run ~max_events:500_000_000 net in
  Printf.printf
    "topology : %d routers, %d PoPs, %d eBGP sessions\nworkload : %d prefixes (%d routes), %d trace events\n"
    topo.T.n_routers pops (List.length topo.T.sessions) prefixes
    (RG.total_routes table) events;
  Printf.printf "snapshot : %s\ntrace    : %s\n"
    (Format.asprintf "%a" Eventsim.Sim.pp_outcome snapshot_outcome)
    (Format.asprintf "%a" Eventsim.Sim.pp_outcome trace_outcome);
  let rr_ids =
    List.filter
      (fun i -> R.is_trr (N.router net i) || R.is_arr (N.router net i))
      (List.init topo.T.n_routers Fun.id)
  in
  let avg f =
    match rr_ids with
    | [] -> 0.
    | _ ->
      (Metrics.Summary.of_list (List.map (fun i -> float_of_int (f i)) rr_ids))
        .Metrics.Summary.mean
  in
  if rr_ids <> [] then begin
    Printf.printf "reflector averages over %d RRs:\n" (List.length rr_ids);
    Printf.printf "  rib-in %.0f  rib-out %.0f  rx %.0f  gen %.0f  tx %.0f\n"
      (avg (fun i -> R.rib_in_entries (N.router net i)))
      (avg (fun i -> R.rib_out_entries (N.router net i)))
      (avg (fun i -> (N.counters net i).Abrr_core.Counters.updates_received))
      (avg (fun i -> (N.counters net i).Abrr_core.Counters.updates_generated))
      (avg (fun i -> (N.counters net i).Abrr_core.Counters.updates_transmitted))
  end;
  let total = N.total_counters net in
  Printf.printf "network totals: rx %d  gen %d  tx %d  bytes-tx %d\n"
    total.Abrr_core.Counters.updates_received
    total.Abrr_core.Counters.updates_generated
    total.Abrr_core.Counters.updates_transmitted
    total.Abrr_core.Counters.bytes_transmitted;
  `Ok ()

let simulate_cmd =
  let term =
    Term.(
      ret
        (const simulate $ scheme_t $ med_t $ pops_t $ rpp_t $ pas_t $ points_t
        $ prefixes_t $ aps_t $ arrs_t $ events_t $ seed_t $ mrai_t))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a synthetic Tier-1 workload.") term

(* ---- bench ---------------------------------------------------------- *)

let scheme_name = function
  | `Full_mesh -> "full-mesh"
  | `Tbrr -> "tbrr"
  | `Tbrr_multi -> "tbrr-multi"
  | `Tbrr_be -> "tbrr-best-external"
  | `Confed -> "confed"
  | `Rcp -> "rcp"
  | `Abrr -> "abrr"

(* The simulate workload, instrumented with the observability layer
   (trace sink + phase timers) and reported as a BENCH_sim.json record
   instead of free-form text — see OBSERVABILITY.md.

   --scheme may be repeated; each scheme is an independent simulation
   point, run in CLI order. --jobs N shards each simulation itself
   across N domains (Network.Sharded): the conservative-window engine
   makes the sharded run digest-identical to the serial one, so the
   emitted record is byte-identical whatever the job count — only the
   ungated wall_s fields vary. That byte-equality is the CI gate for
   the sharded core.

   --checkpoint-every pauses the trace phase every N events and writes
   a numbered segment snapshot per scheme (lib/snapshot);
   --resume-dir restores each scheme from its latest (or --resume-seg)
   segment and finishes the run from there. --deterministic zeroes the
   wall-clock field and omits phase timings, so an uninterrupted, a
   checkpointed and a resumed run of the same workload emit
   byte-identical records — the property CI asserts. *)
let bench schemes med pops rpp pas points prefixes aps arrs events seed mrai
    decision jobs json out_dir deterministic ckpt_every ckpt_dir resume_dir
    resume_seg =
  let module E = Metrics.Emit in
  let module Sim = Eventsim.Sim in
  if jobs < 1 then `Error (false, "--jobs must be >= 1")
  else if (match ckpt_every with Some n -> n < 1 | None -> false) then
    `Error (false, "--checkpoint-every must be >= 1")
  else begin
    let schemes = if schemes = [] then [ `Abrr ] else schemes in
    let@ _topo, table, trace, cfg =
      build_workload med pops rpp pas points prefixes aps arrs events seed mrai schemes
    in
    let cfg scheme = { (cfg scheme) with Abrr_core.Config.decision } in
    let fi = float_of_int in
    (* An unreadable --resume-dir segment or a failed segment write ends
       the command with a usage-style error, like [resume]. *)
    let exception Segment_error of string in
    (* One run step, serial or sharded per --jobs. Sharded max_events
       has barrier granularity (may overshoot by part of a window) —
       harmless here: every call either runs to quiescence or feeds the
       checkpoint loop, which pauses at *some* event boundary. *)
    let run_net net ~max_events =
      if jobs <= 1 then N.run ~max_events net
      else fst (N.Sharded.run ~max_events net ~jobs)
    in
    let point scheme =
      let name = scheme_name scheme in
      let wall0 = Unix.gettimeofday () in
      let net = N.create (cfg scheme) in
      let sim = N.sim net in
      let resumed =
        match resume_dir with
        | None -> false
        | Some dir -> (
          let path =
            match resume_seg with
            | Some k -> Some (Snapshot.segment_path ~dir ~label:name k)
            | None -> Option.map snd (Snapshot.latest_segment ~dir ~label:name)
          in
          match path with
          | None ->
            Printf.eprintf
              "bench: no %s segment under %s, running from scratch\n" name dir;
            false
          | Some path -> (
            match Snapshot.load net ~path with
            | Ok () -> true
            | Error e -> raise (Segment_error (path ^ ": " ^ e))))
      in
      if not resumed then begin
        (* The sink travels inside the snapshots, so a resumed run keeps
           the ring it had at the pause instead of getting a fresh one. *)
        let sink = Sim.Trace.make ~capacity:4096 ~sample_every:64 () in
        Sim.set_sink sim sink;
        Sim.phase sim "snapshot" (fun () ->
            RG.inject_all table net;
            ignore (run_net net ~max_events:200_000_000));
        for i = 0 to N.router_count net - 1 do
          Abrr_core.Counters.reset (N.counters net i)
        done
      end;
      Sim.phase sim "trace" (fun () ->
          if not resumed then TG.schedule net trace;
          match ckpt_every with
          | None -> ignore (run_net net ~max_events:500_000_000)
          | Some every ->
            let seg0 =
              match Snapshot.latest_segment ~dir:ckpt_dir ~label:name with
              | Some (k, _) -> k + 1
              | None -> 0
            in
            let rec loop remaining seg =
              if remaining > 0 then
                match run_net net ~max_events:(min every remaining) with
                | Sim.Event_limit ->
                  let path = Snapshot.segment_path ~dir:ckpt_dir ~label:name seg in
                  (match Snapshot.save net ~path with
                  | Ok () -> ()
                  | Error e -> raise (Segment_error (path ^ ": " ^ e)));
                  loop (remaining - every) (seg + 1)
                | Sim.Quiescent | Sim.Deadline -> ()
            in
            loop 500_000_000 seg0);
      let entries =
        match Sim.sink sim with Some s -> Sim.Trace.entries s | None -> []
      in
      E.run ~label:name ~scheme:name
        ~knobs:
          [
            ("pops", fi pops); ("routers_per_pop", fi rpp);
            ("peer_ases", fi pas); ("peering_points", fi points);
            ("prefixes", fi prefixes); ("trace_events", fi events);
            ("seed", fi seed); ("mrai_s", fi mrai);
          ]
        ~wall_s:(if deterministic then 0. else Unix.gettimeofday () -. wall0)
        ~sim_s:(Eventsim.Time.to_sec (Sim.now sim))
        ~events:(Sim.events_processed sim)
        ~counters:(Abrr_core.Counters.to_fields (N.total_counters net))
        ~summaries:
          (match entries with
          | [] -> []
          | es ->
            [
              ( "queue_depth",
                Metrics.Summary.of_ints
                  (List.map (fun e -> e.Sim.Trace.depth) es) );
            ])
        ~phases:
          (if deterministic then []
           else
             List.map (fun (n, st) -> (n, st.Sim.cpu_s)) (Sim.phase_stats sim))
        []
    in
    match List.map point schemes with
    | exception Segment_error msg -> `Error (false, msg)
    | runs ->
      let record = { E.experiment = "sim"; runs } in
      let path = Filename.concat out_dir (E.filename "sim") in
      E.write_file path record;
      if json then print_string (E.to_string (E.record_to_json record))
      else Printf.printf "wrote %s\n" path;
      `Ok ()
  end

let bench_cmd =
  let schemes_t =
    Arg.(value & opt_all scheme_enum []
         & info [ "scheme" ]
             ~doc:
               "iBGP scheme: $(docv). Repeatable; each scheme becomes one \
                run in the emitted record (default: abrr)."
             ~docv:"full-mesh|tbrr|tbrr-multi|abrr")
  in
  let jobs_t =
    Arg.(value & opt int 1
         & info [ "jobs" ]
             ~doc:
               "Shard each simulation across $(docv) domains \
                (Network.Sharded, conservative synchronization windows). \
                Deterministic: the emitted record is byte-identical to \
                --jobs 1 (wall times aside).")
  in
  let json_t =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Echo the record to stdout as well.")
  in
  let out_t =
    Arg.(value & opt string "."
         & info [ "out" ] ~doc:"Directory to write BENCH_sim.json into.")
  in
  let decision_t =
    Arg.(value
         & opt
             (enum
                [
                  ("incremental", Abrr_core.Config.Incremental);
                  ("naive", Abrr_core.Config.Naive);
                ])
             Abrr_core.Config.Incremental
         & info [ "decision" ] ~docv:"incremental|naive"
             ~doc:
               "Decision engine: $(docv). $(b,naive) recomputes every dirty \
                prefix in full (the differential oracle); the emitted record \
                is byte-identical to $(b,incremental) under \
                $(b,--deterministic), which CI asserts.")
  in
  let det_t =
    Arg.(value & flag
         & info [ "deterministic" ]
             ~doc:
               "Zero the wall-clock field and omit phase timings, making the \
                record a pure function of the workload: an uninterrupted, a \
                checkpointed and a resumed run emit byte-identical files.")
  in
  let ckpt_every_t =
    Arg.(value & opt (some int) None
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:
               "Pause the trace phase every $(docv) events and write a \
                segment snapshot per scheme into $(b,--checkpoint-dir).")
  in
  let ckpt_dir_t =
    Arg.(value & opt string "."
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:
               "Directory for segment snapshots ($(i,scheme).seg$(i,K).snap). \
                Must exist.")
  in
  let resume_dir_t =
    Arg.(value & opt (some string) None
         & info [ "resume-dir" ] ~docv:"DIR"
             ~doc:
               "Restore each scheme from its segment snapshot in $(docv) \
                (written by a previous $(b,--checkpoint-every) run under the \
                same workload flags) and finish the run from there. Schemes \
                with no segment present run from scratch.")
  in
  let resume_seg_t =
    Arg.(value & opt (some int) None
         & info [ "resume-seg" ] ~docv:"K"
             ~doc:
               "Segment number to resume from (default: the highest present \
                per scheme).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the simulate workload instrumented with the observability \
          layer and emit a BENCH_sim.json record (see OBSERVABILITY.md). \
          Supports segmented checkpoint/restore of the trace phase \
          (see DESIGN.md, \"Checkpoint/restore\").")
    Term.(
      ret
        (const bench $ schemes_t $ med_t $ pops_t $ rpp_t $ pas_t $ points_t
        $ prefixes_t $ aps_t $ arrs_t $ events_t $ seed_t $ mrai_t
        $ decision_t $ jobs_t $ json_t $ out_t $ det_t $ ckpt_every_t
        $ ckpt_dir_t $ resume_dir_t $ resume_seg_t))

(* ---- snapshot / resume ---------------------------------------------- *)

let outcome_str o = Format.asprintf "%a" Eventsim.Sim.pp_outcome o

let snapshot_run scheme med pops rpp pas points prefixes aps arrs events seed
    mrai at_event out =
  if at_event < 0 then `Error (false, "--at-event must be >= 0")
  else begin
    let@ _topo, table, trace, cfg =
      build_workload med pops rpp pas points prefixes aps arrs events seed mrai [ scheme ]
    in
    let net = N.create (cfg scheme) in
    let base = feed_and_schedule net table trace in
    let o =
      if at_event = 0 then Eventsim.Sim.Event_limit
      else N.run ~max_events:at_event net
    in
    match Snapshot.save net ~path:out with
    | Error e -> `Error (false, "snapshot: " ^ e)
    | Ok () ->
      let sim = N.sim net in
      Printf.printf
        "wrote %s: paused (%s) %d events into the trace phase, t=%.3f s, %d \
         pending\n"
        out (outcome_str o)
        (Eventsim.Sim.events_processed sim - base)
        (Eventsim.Time.to_sec (Eventsim.Sim.now sim))
        (Eventsim.Sim.pending sim);
      `Ok ()
  end

let snapshot_cmd =
  let at_event_t =
    Arg.(value & opt int 10_000
         & info [ "at-event" ] ~docv:"K"
             ~doc:
               "Checkpoint after $(docv) trace-phase events (0 = right at \
                the trace-phase start).")
  in
  let out_t =
    Arg.(value & opt string "net.snap"
         & info [ "out" ] ~doc:"Snapshot file to write (atomically).")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Run the simulate workload up to a trace-phase event boundary and \
          checkpoint the complete simulation state (RIBs, sessions, \
          counters, clock, random stream, pending events) to a file. Resume \
          with $(b,abrr-sim resume) under the same workload flags; the \
          finished run is byte-identical to an uninterrupted one.")
    Term.(
      ret
        (const snapshot_run $ scheme_t $ med_t $ pops_t $ rpp_t $ pas_t
        $ points_t $ prefixes_t $ aps_t $ arrs_t $ events_t $ seed_t $ mrai_t
        $ at_event_t $ out_t))

let resume_run scheme med pops rpp pas points prefixes aps arrs events seed
    mrai from =
  let@ _topo, _table, _trace, cfg =
    build_workload med pops rpp pas points prefixes aps arrs events seed mrai [ scheme ]
  in
  let net = N.create (cfg scheme) in
  match Snapshot.load net ~path:from with
  | Error e -> `Error (false, Printf.sprintf "%s: %s" from e)
  | Ok () ->
    let sim = N.sim net in
    Printf.printf "restored %s: %d events processed, t=%.3f s, %d pending\n"
      from
      (Eventsim.Sim.events_processed sim)
      (Eventsim.Time.to_sec (Eventsim.Sim.now sim))
      (Eventsim.Sim.pending sim);
    let o = N.run ~max_events:500_000_000 net in
    let total = N.total_counters net in
    Printf.printf "finished: %s at %d events, t=%.3f s\n" (outcome_str o)
      (Eventsim.Sim.events_processed sim)
      (Eventsim.Time.to_sec (Eventsim.Sim.now sim));
    Printf.printf "network totals: rx %d  gen %d  tx %d  bytes-tx %d\n"
      total.Abrr_core.Counters.updates_received
      total.Abrr_core.Counters.updates_generated
      total.Abrr_core.Counters.updates_transmitted
      total.Abrr_core.Counters.bytes_transmitted;
    `Ok ()

let resume_cmd =
  let from_t =
    Arg.(value & opt string "net.snap"
         & info [ "from" ] ~doc:"Snapshot file to restore.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Restore a checkpoint written by $(b,abrr-sim snapshot) and run it \
          to completion. The workload flags must match the ones the \
          snapshot was taken under (the file carries a config fingerprint \
          and refuses to restore into a different configuration).")
    Term.(
      ret
        (const resume_run $ scheme_t $ med_t $ pops_t $ rpp_t $ pas_t
        $ points_t $ prefixes_t $ aps_t $ arrs_t $ events_t $ seed_t $ mrai_t
        $ from_t))

(* ---- bisect ---------------------------------------------------------- *)

(* Two runs of the same workload compared via canonical state digests at
   increasing trace-phase event indices; binary search localizes the
   first index where the states differ. Without a fault the runs are
   identical (the simulation is a pure function of the workload);
   --fault-rng-at K perturbs run B's random stream right after trace
   event K, modelling the kind of stray-randomness bug the tool exists
   to localize. Each digest probe replays the run from scratch, so use
   small workloads.

   --jobs N replays run B sharded across N domains instead: the search
   then localizes any sharded-vs-serial divergence to the first
   barrier where the digests differ (expected: none — the sharded
   engine is digest-identical by construction, and this is the tool
   that finds the window if that ever breaks). Because a sharded pause
   has barrier granularity, probe k pauses run B at its first barrier
   with >= k events and compares run A at the same processed count. *)
let bisect_run scheme med pops rpp pas points prefixes aps arrs events seed
    mrai fault_at jobs =
  if jobs < 1 then `Error (false, "--jobs must be >= 1")
  else if jobs > 1 && fault_at <> None then
    `Error
      ( false,
        "--jobs compares sharded-vs-serial; it cannot be combined with \
         --fault-rng-at (run B can only carry one fault model)" )
  else begin
  let@ _topo, table, trace, cfg =
    build_workload med pops rpp pas points prefixes aps arrs events seed mrai [ scheme ]
  in
  let build () =
    let net = N.create (cfg scheme) in
    let base = feed_and_schedule net table trace in
    (net, base)
  in
  let advance net base k =
    let sim = N.sim net in
    let target = base + k in
    let cur = Eventsim.Sim.events_processed sim in
    if target > cur then ignore (N.run ~max_events:(target - cur) net)
  in
  let prepare ?sink fault k =
    let net, base = build () in
    (match sink with
    | Some s -> Eventsim.Sim.set_sink (N.sim net) s
    | None -> ());
    (match fault with
    | Some kf when k >= kf ->
      advance net base kf;
      ignore (Eventsim.Prng.int (Eventsim.Sim.rng (N.sim net)) 1_000_000)
    | _ -> ());
    advance net base k;
    net
  in
  let mk_digest fault =
    let memo = Hashtbl.create 16 in
    fun k ->
      match Hashtbl.find_opt memo k with
      | Some d -> d
      | None ->
        let d =
          match Snapshot.digest (prepare fault k) with
          | Ok d -> d
          | Error e -> failwith ("bisect digest: " ^ e)
        in
        Hashtbl.add memo k d;
        d
  in
  let digest_a, digest_b =
    if jobs <= 1 then (mk_digest None, mk_digest fault_at)
    else begin
      (* Sharded run B: a pause has barrier granularity, so probe k
         stops B at its first barrier with >= k events, records the
         exact count reached, and run A is digested at that same
         count — both stay pure functions of k, which is all the
         bisection needs. *)
      let m_memo = Hashtbl.create 16 and d_memo = Hashtbl.create 16 in
      let probe k =
        match Hashtbl.find_opt d_memo k with
        | Some d -> d
        | None ->
          let net, base = build () in
          let target = base + k in
          let cur = Eventsim.Sim.events_processed (N.sim net) in
          if target > cur then
            ignore (N.Sharded.run ~max_events:(target - cur) net ~jobs);
          Hashtbl.replace m_memo k
            (Eventsim.Sim.events_processed (N.sim net) - base);
          let d =
            match Snapshot.digest net with
            | Ok d -> d
            | Error e -> failwith ("bisect digest: " ^ e)
          in
          Hashtbl.add d_memo k d;
          d
      in
      let serial = mk_digest None in
      ((fun k -> ignore (probe k); serial (Hashtbl.find m_memo k)), probe)
    end
  in
  let net_a, base = build () in
  ignore (N.run ~max_events:500_000_000 net_a);
  let hi = Eventsim.Sim.events_processed (N.sim net_a) - base in
  let hi = match fault_at with Some kf -> max hi (kf + 1) | None -> hi in
  Printf.printf "trace phase spans %d events; bisecting [0, %d]\n%!" hi hi;
  match Snapshot.Bisect.search ~lo:0 ~hi ~digest_a ~digest_b with
  | None ->
    Printf.printf "runs are state-identical through event %d\n" hi;
    `Ok ()
  | Some d ->
    Printf.printf "first divergence at trace-phase event %d\n" d;
    let show tag fault =
      let sink = Eventsim.Sim.Trace.make ~capacity:4 ~sample_every:1 () in
      ignore (prepare ~sink fault d);
      Printf.printf "  run %s, last events into the divergence:\n" tag;
      List.iter
        (fun (e : Eventsim.Sim.Trace.entry) ->
          Printf.printf "    t=%.6f s  %-8s  actor=r%d  detail=%d  depth=%d\n"
            (Eventsim.Time.to_sec e.Eventsim.Sim.Trace.time)
            (N.trace_kind_name e.Eventsim.Sim.Trace.kind)
            e.Eventsim.Sim.Trace.actor e.Eventsim.Sim.Trace.detail
            e.Eventsim.Sim.Trace.depth)
        (Eventsim.Sim.Trace.entries sink)
    in
    if jobs > 1 then
      Printf.printf
        "  run B was the sharded replay (--jobs %d); divergence is at \
         barrier granularity\n"
        jobs
    else begin
      show "A" None;
      show "B" fault_at
    end;
    `Ok ()
  end

let bisect_cmd =
  let fault_t =
    Arg.(value & opt (some int) None
         & info [ "fault-rng-at" ] ~docv:"K"
             ~doc:
               "Perturb run B's random stream right after trace-phase event \
                $(docv) — a seeded divergence the search must localize to \
                exactly $(docv). Without it the two runs are identical and \
                the search reports none.")
  in
  let jobs_t =
    Arg.(value & opt int 1
         & info [ "jobs" ]
             ~doc:
               "Replay run B sharded across $(docv) domains \
                (Network.Sharded) and bisect sharded-vs-serial over \
                barrier digests. Incompatible with --fault-rng-at.")
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Binary-search the first trace-phase event index where two runs of \
          the same workload diverge, comparing canonical state digests \
          (lib/snapshot), and print the trace entries leading into the \
          divergence. Each probe replays the run from scratch: use small \
          workloads.")
    Term.(
      ret
        (const bisect_run $ scheme_t $ med_t $ pops_t $ rpp_t $ pas_t
        $ points_t $ prefixes_t $ aps_t $ arrs_t $ events_t $ seed_t $ mrai_t
        $ fault_t $ jobs_t))

(* ---- check ---------------------------------------------------------- *)

let workload_of (table : RG.t) =
  List.concat_map
    (fun routes ->
      List.map
        (fun (r : RG.ebgp_route) -> (r.RG.router, r.RG.neighbor, r.RG.route))
        routes)
    (Array.to_list table.RG.routes)

let gadget_enum =
  Arg.enum
    [ ("med", `Med); ("topology", `Topology); ("path", `Path) ]

let _ = Abrr_core.Gadgets.G_confed (* gadget flavors listed below *)

let gflavor_enum =
  Arg.enum
    [ ("full-mesh", Abrr_core.Gadgets.G_full_mesh); ("tbrr", Abrr_core.Gadgets.G_tbrr);
      ("tbrr-best-external", Abrr_core.Gadgets.G_tbrr_best_external);
      ("confed", Abrr_core.Gadgets.G_confed);
      ("rcp", Abrr_core.Gadgets.G_rcp);
      ("abrr", Abrr_core.Gadgets.G_abrr 1); ("abrr2", Abrr_core.Gadgets.G_abrr 2) ]

(* Exit-code contract shared by check and lint (mirrors explore):
   0 = no failed finding, or the verdict matches --expect;
   1 = failed findings, or the verdict does not match --expect;
   2 = the configuration / workload cannot be built (usage);
   3 = internal analyzer error. *)
let finish_report ~json ~expect report =
  if json then
    print_string (Metrics.Emit.to_string (Verify.Report.to_json report))
  else print_string (Verify.Report.render report);
  let ok = Verify.Report.ok report in
  match expect with
  | None -> Stdlib.exit (if ok then 0 else 1)
  | Some exp ->
    let matches = match exp with `Pass -> ok | `Findings -> not ok in
    prerr_endline
      (if matches then "verdict matches --expect"
       else "verdict does NOT match --expect");
    Stdlib.exit (if matches then 0 else 1)

let json_t =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit the findings as JSON (the $(b,Verify.Report) schema: a \
                 summary object plus one {check; code; severity; detail} \
                 object per finding) instead of the monospace table.")

let expect_t =
  Arg.(value
       & opt (some (enum [ ("pass", `Pass); ("findings", `Findings) ])) None
       & info [ "expect" ]
           ~doc:"Assert the verdict: $(b,pass) (no failed finding) or \
                 $(b,findings) (at least one failure). Exit 0 on match, 1 \
                 otherwise.")

let exits_doc =
  [ Cmd.Exit.info 0 ~doc:"no failed finding, or the $(b,--expect) assertion \
                          matched.";
    Cmd.Exit.info 1 ~doc:"failed findings were reported, or the \
                          $(b,--expect) assertion did not match.";
    Cmd.Exit.info 2 ~doc:"the configuration or workload cannot be built \
                          from the given parameters.";
    Cmd.Exit.info 3 ~doc:"internal analyzer error." ]

let built_config scheme med pops rpp pas points prefixes aps arrs seed =
  (* Bad parameter combinations (0 APs, 0 ARRs, ...) raise while the
     topology/config is being built, before the analyzer can report:
     surface them as the usage exit code rather than uncaught
     exceptions. *)
  match
    let topo = build_topo pops rpp pas points seed in
    let table = RG.generate topo (RG.spec ~n_prefixes:prefixes ~seed ()) in
    let cfg =
      T.config ~med_mode:med ~scheme:(resolve_scheme topo aps arrs scheme) topo
    in
    (cfg, workload_of table)
  with
  | exception e ->
    prerr_endline ("cannot build the configuration: " ^ Printexc.to_string e);
    Stdlib.exit 2
  | v -> v

let check gadget gflavor scheme med pops rpp pas points prefixes aps arrs seed
    json expect =
  match gadget with
  | Some kind ->
    (* A seeded-bad instance: analyze a §2.3 gadget configuration. *)
    let module G = Abrr_core.Gadgets in
    let g =
      match kind with
      | `Med -> G.med_oscillation gflavor
      | `Topology -> G.topology_oscillation gflavor
      | `Path -> G.path_inefficiency gflavor
    in
    if not json then print_endline g.G.description;
    (match Verify.Static.analyze_gadget g with
    | exception e ->
      prerr_endline ("internal analyzer error: " ^ Printexc.to_string e);
      Stdlib.exit 3
    | report -> finish_report ~json ~expect report)
  | None ->
    let cfg, workload =
      built_config scheme med pops rpp pas points prefixes aps arrs seed
    in
    (match Verify.Static.analyze ~workload cfg with
    | exception e ->
      prerr_endline ("internal analyzer error: " ^ Printexc.to_string e);
      Stdlib.exit 3
    | report -> finish_report ~json ~expect report)

let check_cmd =
  let doc =
    "Statically verify a configuration: AP soundness, signaling-graph \
     completeness and per-prefix anomaly potential — without running the \
     simulator. Exit 0 = pass, 1 = findings, 2 = usage, 3 = internal error \
     (see EXIT STATUS)."
  in
  let gadget_t =
    Arg.(value & opt (some gadget_enum) None
         & info [ "gadget" ]
             ~doc:"Analyze a Sec 2.3 gadget configuration (med, topology or \
                   path) instead of the synthetic Tier-1 network.")
  in
  let gflavor_t =
    Arg.(value & opt gflavor_enum Abrr_core.Gadgets.G_tbrr
         & info [ "run-scheme" ] ~doc:"Scheme flavor for $(b,--gadget).")
  in
  Cmd.v (Cmd.info "check" ~doc ~exits:exits_doc)
    Term.(
      const check $ gadget_t $ gflavor_t $ scheme_t $ med_t $ pops_t $ rpp_t
      $ pas_t $ points_t $ prefixes_t $ aps_t $ arrs_t $ seed_t $ json_t
      $ expect_t)

(* ---- lint ----------------------------------------------------------- *)

let lint scheme med pops rpp pas points prefixes aps arrs seed json expect
    bench_out =
  let cfg, workload =
    built_config scheme med pops rpp pas points prefixes aps arrs seed
  in
  match
    let wall0 = Unix.gettimeofday () in
    let t, report = Verify.Static.lint_solved ~workload cfg in
    (t, report, Unix.gettimeofday () -. wall0)
  with
  | exception e ->
    prerr_endline ("internal analyzer error: " ^ Printexc.to_string e);
    Stdlib.exit 3
  | t, report, wall ->
    (match bench_out with
    | None -> ()
    | Some dir ->
      let module P = Verify.Propagation in
      let module E = Metrics.Emit in
      (* One deterministic what-if on top of the full solve: fail the
         lowest link of the topology and measure the incremental
         re-solve (must stay far below the from-scratch node_evals). *)
      let delta_evals =
        match Igp.Graph.neighbors cfg.C.igp 0 with
        | (v, _) :: _ -> (
          match P.apply_delta t (P.Fail_link (0, v)) with
          | Ok t' -> (P.stats t').P.node_evals
          | Error _ -> 0)
        | [] -> 0
      in
      let s = P.stats t in
      let m = E.metric in
      let count sev = float_of_int (Verify.Report.count sev report) in
      let fi = float_of_int in
      let run =
        E.run ~scheme:(scheme_name scheme)
          ~knobs:
            [ ("pops", fi pops); ("routers_per_pop", fi rpp);
              ("routers", fi cfg.C.n_routers); ("prefixes", fi prefixes);
              ("aps", fi aps); ("arrs_per_ap", fi arrs); ("seed", fi seed) ]
          ~wall_s:wall ~label:"lint"
          [ m "findings_pass" (count Verify.Report.Pass);
            m "findings_warn" (count Verify.Report.Warn);
            m "findings_fail" (count Verify.Report.Fail);
            m "prefixes_solved" (fi s.P.prefixes_solved);
            m "learnable_classes" (fi (P.class_count t));
            m "node_evals" (fi s.P.node_evals);
            m "spf_rows" (fi s.P.spf_rows);
            m "delta_node_evals" (fi delta_evals);
            E.metric ~unit_:"s" ~gate:false "lint_wall_s" wall ]
      in
      let path = Filename.concat dir (E.filename "verify") in
      E.write_file path { E.experiment = "verify"; runs = [ run ] };
      prerr_endline ("benchmark record written to " ^ path));
    finish_report ~json ~expect report

let lint_cmd =
  let doc =
    "The unified static lint pipeline at paper scale: structural checks \
     (validation, AP soundness, signaling graph) plus the symbolic \
     propagation analysis — per-prefix convergence verdicts, visibility, \
     suboptimal exits and forwarding loops from an abstract-interpretation \
     fixpoint over the iBGP signaling graph, with no simulation. Handles \
     1000+-router topologies (e.g. $(b,--pops 42 --routers-per-pop 24)). \
     Exit 0 = pass, 1 = findings, 2 = usage, 3 = internal error (see EXIT \
     STATUS)."
  in
  let bench_out_t =
    Arg.(value & opt (some string) None
         & info [ "bench-out" ] ~docv:"DIR"
             ~doc:"Write a BENCH_verify.json record (solver statistics, \
                   finding counts, one incremental what-if measurement) \
                   into $(docv), comparable with $(b,bench/compare.exe).")
  in
  Cmd.v (Cmd.info "lint" ~doc ~exits:exits_doc)
    Term.(
      const lint $ scheme_t $ med_t $ pops_t $ rpp_t $ pas_t $ points_t
      $ prefixes_t $ aps_t $ arrs_t $ seed_t $ json_t $ expect_t
      $ bench_out_t)

(* ---- scenario -------------------------------------------------------- *)

(* The adversarial / operational scenario catalog (lib/scenario): each
   scenario builds a fresh network from the shared workload, injects its
   fault or attack, and scores named checks under runtime-invariant
   supervision. The findings flow through the same Verify.Report
   renderer and --expect/exit-code contract as check/lint. *)
let scenario scheme_label only pops rpp pas points prefixes aps arrs seed mrai
    json expect bench_out =
  let env =
    match
      Scenario.Catalog.env
        (Scenario.Catalog.spec ~pops ~routers_per_pop:rpp ~peer_ases:pas
           ~peering_points_per_as:points ~prefixes ~aps ~arrs_per_ap:arrs
           ~mrai:(Eventsim.Time.sec mrai) ~seed ())
    with
    | exception e ->
      prerr_endline ("cannot build the workload: " ^ Printexc.to_string e);
      Stdlib.exit 2
    | env -> env
  in
  let selected =
    match only with
    | [] -> Scenario.Catalog.names
    | l ->
      List.iter
        (fun n ->
          if not (List.mem n Scenario.Catalog.names) then begin
            prerr_endline
              ("unknown scenario " ^ n ^ " (have: "
              ^ String.concat ", " Scenario.Catalog.names
              ^ ")");
            Stdlib.exit 2
          end)
        l;
      List.filter (fun n -> List.mem n l) Scenario.Catalog.names
  in
  let timed =
    List.map
      (fun name ->
        let wall0 = Unix.gettimeofday () in
        match Scenario.Catalog.run env ~scheme:scheme_label name with
        | exception e ->
          prerr_endline ("internal scenario error: " ^ Printexc.to_string e);
          Stdlib.exit 3
        | r -> (r, Unix.gettimeofday () -. wall0))
      selected
  in
  let results = List.map fst timed in
  if not json then
    List.iter (fun r -> print_endline (Scenario.Engine.summary_line r)) results;
  (match bench_out with
  | None -> ()
  | Some dir ->
    let module E = Metrics.Emit in
    let module SE = Scenario.Engine in
    let fi = float_of_int in
    let m = E.metric in
    let runs =
      List.map
        (fun ((r : SE.result), wall) ->
          let failed =
            List.length (List.filter (fun c -> not c.SE.ok) r.SE.checks)
          in
          E.run
            ~label:("scenario." ^ r.SE.name)
            ~scheme:r.SE.scheme
            ~knobs:
              [ ("pops", fi pops); ("routers_per_pop", fi rpp);
                ("peer_ases", fi pas); ("peering_points", fi points);
                ("prefixes", fi prefixes); ("aps", fi aps);
                ("arrs_per_ap", fi arrs); ("seed", fi seed);
                ("mrai_s", fi mrai) ]
            ~wall_s:wall ~sim_s:(Eventsim.Time.to_sec r.SE.sim_end)
            ~events:r.SE.events
            ~counters:(Abrr_core.Counters.to_fields r.SE.counters)
            [ m "checks" (fi (List.length r.SE.checks));
              m "checks_failed" (fi failed);
              m "invariant_violations" (fi r.SE.invariant_violations);
              m "detections" (fi r.SE.detections);
              E.metric ~unit_:"s" ~gate:false "scenario_wall_s" wall ])
        timed
    in
    let record = { E.experiment = "scenario"; runs } in
    let path = Filename.concat dir (E.filename "scenario") in
    E.write_file path record;
    prerr_endline ("benchmark record written to " ^ path));
  finish_report ~json ~expect (Scenario.Engine.report results)

let scenario_cmd =
  let doc =
    "Run the adversarial & operational scenario catalog: prefix hijack, \
     route leak, persistent flapping vs. RFC 2439 damping, a session reset \
     under churn, and the ABRR drills (ARR failure with AP takeover, live \
     repartitioning within the consistent-hashing movement bound, the \
     Sec 2.4 TBRR-to-ABRR migration). Every scenario runs under runtime \
     invariant supervision and scores named checks; findings use the \
     check/lint report schema. Exit 0 = pass, 1 = findings, 2 = usage, 3 = \
     internal error (see EXIT STATUS)."
  in
  let scheme_label_t =
    Arg.(value
         & opt (enum [ ("abrr", "abrr"); ("tbrr", "tbrr"); ("mesh", "mesh");
                       ("confed", "confed"); ("rcp", "rcp") ]) "abrr"
         & info [ "scheme" ] ~docv:"abrr|tbrr|mesh|confed|rcp"
             ~doc:"iBGP scheme the scheme-agnostic scenarios run under (the \
                   ABRR drills ignore it: arr-failover and repartition are \
                   ABRR by construction, migration runs Dual).")
  in
  let only_t =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"NAME"
             ~doc:"Run only scenario $(docv) (repeatable; default: the whole \
                   catalog in order).")
  in
  let bench_out_t =
    Arg.(value & opt (some string) None
         & info [ "bench-out" ] ~docv:"DIR"
             ~doc:"Write a BENCH_scenario.json record (per-scenario check / \
                   violation / detection counts plus the network-total \
                   counters) into $(docv), comparable with \
                   $(b,bench/compare.exe).")
  in
  Cmd.v (Cmd.info "scenario" ~doc ~exits:exits_doc)
    Term.(
      const scenario $ scheme_label_t $ only_t $ pops_t $ rpp_t $ pas_t
      $ points_t $ prefixes_t $ aps_t $ arrs_t $ seed_t $ mrai_t $ json_t
      $ expect_t $ bench_out_t)

(* ---- gadget --------------------------------------------------------- *)

let gadget kind flavor =
  let module G = Abrr_core.Gadgets in
  let module A = Abrr_core.Anomaly in
  let g =
    match kind with
    | `Med -> G.med_oscillation flavor
    | `Topology -> G.topology_oscillation flavor
    | `Path -> G.path_inefficiency flavor
  in
  let net = G.build g in
  let v = A.run ~max_events:50_000 net in
  Printf.printf "%s\n" g.G.description;
  Printf.printf "outcome: %s (%d best changes, %d events)\n"
    (if A.oscillates v then "OSCILLATES" else "converges")
    v.A.best_changes v.A.events;
  (match kind with
  | `Path ->
    (match N.best_exit net ~router:G.observer g.G.prefix with
    | Some e ->
      Printf.printf "observer exit: r%d (%s)\n" e
        (if e = G.near_exit then "optimal" else "detour")
    | None -> print_endline "observer has no route")
  | `Med | `Topology -> ());
  `Ok ()

let gadget_cmd =
  let kind = Arg.(value & opt gadget_enum `Med & info [ "gadget" ] ~doc:"Gadget: med, topology or path.") in
  let flavor = Arg.(value & opt gflavor_enum Abrr_core.Gadgets.G_tbrr & info [ "run-scheme" ] ~doc:"Scheme flavor.") in
  Cmd.v (Cmd.info "gadget" ~doc:"Run a Sec 2.3 anomaly gadget.")
    Term.(ret (const gadget $ kind $ flavor))

(* ---- explore / replay ----------------------------------------------- *)

let gadget_of_kind kind flavor =
  let module G = Abrr_core.Gadgets in
  match kind with
  | `Med -> G.med_oscillation flavor
  | `Topology -> G.topology_oscillation flavor
  | `Path -> G.path_inefficiency flavor

let kind_name = function `Med -> "med" | `Topology -> "topology" | `Path -> "path"

let kind_of_name = function
  | "med" -> Some `Med
  | "topology" -> Some `Topology
  | "path" -> Some `Path
  | _ -> None

let flavor_names =
  [ ("full-mesh", Abrr_core.Gadgets.G_full_mesh);
    ("tbrr", Abrr_core.Gadgets.G_tbrr);
    ("tbrr-best-external", Abrr_core.Gadgets.G_tbrr_best_external);
    ("confed", Abrr_core.Gadgets.G_confed);
    ("rcp", Abrr_core.Gadgets.G_rcp);
    ("abrr", Abrr_core.Gadgets.G_abrr 1);
    ("abrr2", Abrr_core.Gadgets.G_abrr 2) ]

let flavor_name f =
  match List.find_opt (fun (_, g) -> g = f) flavor_names with
  | Some (n, _) -> n
  | None -> "unknown"

let mode_enum = Arg.enum [ ("async", Explore.Async); ("timed", Explore.Timed) ]

let explore_run kind flavor mode por invariants check_exits depth max_states
    faults ce_out expect =
  let module E = Explore in
  let g = gadget_of_kind kind flavor in
  let sc = E.scenario_of_gadget ~check_exits g in
  let limits = { E.max_depth = depth; max_states; max_faults = faults } in
  let r = E.explore ~mode ~por ~invariants ~limits sc in
  Format.printf "%s/%s: %a@." (kind_name kind) (flavor_name flavor) E.pp_stats
    r.E.stats;
  let code =
    match r.E.verdict with
    | E.Safe { complete = true; terminal } ->
      Format.printf
        "SAFE (complete): state space exhausted, every schedule converges%s@."
        (match terminal with
        | Some d -> Printf.sprintf " to single terminal %s" d
        | None -> "");
      0
    | E.Safe { complete = false; terminal } ->
      Format.printf
        "SAFE (bounded): no violation within the budget (state space NOT \
         exhausted)%s@."
        (match terminal with
        | Some d -> Printf.sprintf "; single terminal so far %s" d
        | None -> "");
      2
    | E.Unsafe ce ->
      Format.printf "UNSAFE: %a (schedule: %d choices)@." E.pp_violation
        ce.E.violation
        (List.length ce.E.schedule);
      (match E.verify_counterexample sc ~mode ce with
      | Ok () -> Format.printf "counterexample replay verified@."
      | Error e ->
        Format.printf "counterexample replay FAILED: %s@." e;
        Stdlib.exit 3);
      (match ce_out with
      | None -> ()
      | Some path ->
        let meta =
          [ ("gadget", kind_name kind); ("flavor", flavor_name flavor);
            ("mode", (match mode with E.Async -> "async" | E.Timed -> "timed"));
            ("por", string_of_bool por) ]
        in
        (match E.Ce.save { E.Ce.meta; ce } ~path with
        | Ok () -> Format.printf "counterexample written to %s@." path
        | Error e ->
          Format.printf "cannot write %s: %s@." path e;
          Stdlib.exit 3));
      1
  in
  match expect with
  | None -> Stdlib.exit code
  | Some exp ->
    let matches =
      match (exp, r.E.verdict) with
      | `Safe, E.Safe { complete = true; _ } -> true
      | `Bounded, E.Safe { complete = false; _ } -> true
      | `Unsafe, E.Unsafe _ -> true
      | `Cycle, E.Unsafe { E.violation = E.Dispute_cycle _; _ } -> true
      | _ -> false
    in
    if matches then begin
      Format.printf "verdict matches --expect@.";
      Stdlib.exit 0
    end
    else begin
      Format.printf "verdict does NOT match --expect@.";
      Stdlib.exit 1
    end

let explore_cmd =
  let kind = Arg.(value & opt gadget_enum `Med & info [ "gadget" ] ~doc:"Gadget: med, topology or path.") in
  let flavor = Arg.(value & opt gflavor_enum Abrr_core.Gadgets.G_tbrr & info [ "run-scheme" ] ~doc:"Scheme flavor.") in
  let mode_t =
    Arg.(value & opt mode_enum Explore.Async
         & info [ "mode" ]
             ~doc:"Schedule model: $(b,async) (any pending event may fire \
                   next) or $(b,timed) (earliest-timestamp ties only).")
  in
  let por_t =
    Arg.(value & flag & info [ "no-por" ] ~doc:"Disable sleep-set partial-order reduction.")
  in
  let inv_t =
    Arg.(value & flag & info [ "no-invariants" ] ~doc:"Skip per-state runtime invariant checks.")
  in
  let exits_t =
    Arg.(value & flag
         & info [ "no-exits" ]
             ~doc:"Skip the full-mesh reference exit comparison at quiescent \
                   states (use when hunting dispute cycles on configs that \
                   are expected to deflect).")
  in
  let depth_t =
    Arg.(value & opt int 20_000 & info [ "depth" ] ~docv:"N" ~doc:"Truncate any schedule past $(docv) choices.")
  in
  let states_t =
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~docv:"N" ~doc:"Abort the search past $(docv) distinct states.")
  in
  let faults_t =
    Arg.(value & opt int 0 & info [ "faults" ] ~docv:"N" ~doc:"Allow up to $(docv) fault-injection choice points per schedule.")
  in
  let ce_out_t =
    Arg.(value & opt (some string) None
         & info [ "ce-out" ] ~docv:"FILE" ~doc:"Write the counterexample (if any) to $(docv), replayable with $(b,abrr-sim replay).")
  in
  let expect_t =
    Arg.(value
         & opt (some (enum [ ("safe", `Safe); ("bounded", `Bounded); ("unsafe", `Unsafe); ("cycle", `Cycle) ])) None
         & info [ "expect" ]
             ~doc:"Assert the verdict: $(b,safe) (exhausted, no violation), \
                   $(b,bounded) (budget hit, no violation), $(b,unsafe) (any \
                   violation), $(b,cycle) (a dispute cycle). Exit 0 on \
                   match, 1 otherwise.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded model checking: search every event schedule of a Sec 2.3 \
          gadget (depth-first with digest pruning and sleep-set POR), \
          checking invariants, loop freedom and exit correctness at every \
          quiescent state. Exit 0 = safe and exhausted, 1 = violation \
          (counterexample printed, optionally saved), 2 = budget exhausted \
          without a violation.")
    Term.(
      const explore_run $ kind $ flavor $ mode_t
      $ Term.app (const not) por_t
      $ Term.app (const not) inv_t
      $ Term.app (const not) exits_t
      $ depth_t $ states_t $ faults_t $ ce_out_t $ expect_t)

let replay_run from snap_out =
  let module E = Explore in
  match E.Ce.load ~path:from with
  | Error e -> `Error (false, from ^ ": " ^ e)
  | Ok { E.Ce.meta; ce } -> (
    let lookup k = List.assoc_opt k meta in
    match (lookup "gadget", lookup "flavor") with
    | Some gk, Some fl -> (
      match (kind_of_name gk, List.assoc_opt fl flavor_names) with
      | Some kind, Some flavor -> (
        let mode =
          match lookup "mode" with Some "timed" -> E.Timed | _ -> E.Async
        in
        let g = gadget_of_kind kind flavor in
        let sc = E.scenario_of_gadget g in
        Format.printf "%s: %s/%s counterexample, %d choices@." from gk fl
          (List.length ce.E.schedule);
        Format.printf "violation: %a@." E.pp_violation ce.E.violation;
        match E.verify_counterexample sc ~mode ce with
        | Error e -> `Error (false, "replay diverged: " ^ e)
        | Ok () -> (
          Format.printf "replay verified: violating state %s reached@."
            ce.E.state_digest;
          match snap_out with
          | None -> `Ok ()
          | Some path -> (
            let net = sc.E.fresh () in
            E.replay net ce.E.schedule;
            match Snapshot.save net ~path with
            | Ok () ->
              Format.printf "violating state checkpointed to %s@." path;
              `Ok ()
            | Error e -> `Error (false, "snapshot: " ^ e))))
      | _ ->
        `Error (false, Printf.sprintf "unknown gadget/flavor %S/%S in metadata" gk fl))
    | _ ->
      `Error
        (false, "counterexample lacks gadget metadata (write one with abrr-sim explore --ce-out)"))

let replay_cmd =
  let from_t =
    Arg.(required & opt (some string) None
         & info [ "from" ] ~docv:"FILE" ~doc:"Counterexample file written by $(b,abrr-sim explore --ce-out).")
  in
  let snap_out_t =
    Arg.(value & opt (some string) None
         & info [ "snap-out" ] ~docv:"FILE"
             ~doc:"Also checkpoint the violating state to $(docv) (a regular \
                   snapshot, usable with $(b,abrr-sim bisect)).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a schedule counterexample: rebuild the gadget scenario from \
          the file's metadata, apply the recorded choices and verify the \
          violating state is reproduced digest-exact.")
    Term.(ret (const replay_run $ from_t $ snap_out_t))

(* ---- trace ----------------------------------------------------------- *)

let trace out replay pops rpp pas points prefixes events seed =
  let@ topo, table, events_l =
    validated @@ fun () ->
    let topo = build_topo pops rpp pas points seed in
    let table = RG.generate topo (RG.spec ~n_prefixes:prefixes ~seed ()) in
    let events_l =
      TG.generate table (TG.spec ~events ~duration:(Eventsim.Time.days 14) ~seed ())
    in
    Topo.Mrt.save out ~local_as:(Bgp.Asn.of_int 65000) events_l;
    (topo, table, events_l)
  in
  let a, w = TG.action_count events_l in
  Printf.printf "wrote %s: %d announcements, %d withdrawals\n" out a w;
  if not replay then `Ok ()
  else
    match Topo.Mrt.load out with
    | Error e -> `Error (false, "replay: " ^ out ^ ": " ^ e)
    | Ok loaded ->
      let cfg =
        T.config ~med_mode:Bgp.Decision.Always_compare
          ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo)
          topo
      in
      let net = N.create cfg in
      RG.inject_all table net;
      ignore (N.run ~max_events:200_000_000 net);
      TG.schedule net loaded;
      let o = N.run ~max_events:500_000_000 net in
      Printf.printf "replayed %d events from disk: %s\n" (List.length loaded)
        (Format.asprintf "%a" Eventsim.Sim.pp_outcome o);
      `Ok ()

let trace_cmd =
  let out = Arg.(value & opt string "trace.mrt" & info [ "out" ] ~doc:"Output MRT file.") in
  let replay = Arg.(value & flag & info [ "replay" ] ~doc:"Reload the file and replay it.") in
  Cmd.v (Cmd.info "trace" ~doc:"Generate (and optionally replay) an MRT update trace.")
    Term.(ret (const trace $ out $ replay $ pops_t $ rpp_t $ pas_t $ points_t
               $ prefixes_t $ events_t $ seed_t))

(* ---- boot ------------------------------------------------------------ *)

let boot sessions rtt_ms cost_us =
  let@ spec =
    validated @@ fun () ->
    Abrr_core.Session_setup.spec ~sessions ~rtt:(Eventsim.Time.ms rtt_ms)
      ~per_message_cost:(Eventsim.Time.us cost_us) ()
  in
  let r = Abrr_core.Session_setup.run spec in
  Printf.printf "%d sessions established in %.3f s (%d messages processed)\n"
    r.Abrr_core.Session_setup.established
    (Eventsim.Time.to_sec r.Abrr_core.Session_setup.boot_time)
    r.Abrr_core.Session_setup.messages_processed;
  `Ok ()

let boot_cmd =
  let sessions = Arg.(value & opt int 1000 & info [ "sessions" ] ~doc:"Number of iBGP sessions.") in
  let rtt = Arg.(value & opt int 20 & info [ "rtt-ms" ] ~doc:"Round-trip time, ms.") in
  let cost = Arg.(value & opt int 200 & info [ "cost-us" ] ~doc:"CPU cost per inbound message, us.") in
  Cmd.v (Cmd.info "boot" ~doc:"Measure ARR boot time through the BGP FSM (Sec 3.3).")
    Term.(ret (const boot $ sessions $ rtt $ cost))

(* ---- partition -------------------------------------------------------- *)

let partition aps =
  let@ p = validated @@ fun () -> Abrr_core.Partition.uniform aps in
  Format.printf "%a@." Abrr_core.Partition.pp p;
  `Ok ()

let partition_cmd =
  Cmd.v (Cmd.info "partition" ~doc:"Print a uniform address-partition layout.")
    Term.(ret (const partition $ aps_t))

let () =
  let doc = "Address-Based Route Reflection simulator (CoNEXT 2011 reproduction)" in
  let info = Cmd.info "abrr-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ simulate_cmd; bench_cmd; snapshot_cmd; resume_cmd; bisect_cmd;
            check_cmd; lint_cmd; scenario_cmd; gadget_cmd; explore_cmd;
            replay_cmd; trace_cmd; boot_cmd; partition_cmd ]))
