(* Eventsim.Sharded / Network.Sharded: safe-horizon arithmetic, the
   conservative-window engine on toy programs (determinism, cross-shard
   FIFO, lookahead-violation detection, stall accounting), the shard
   plan (AP colocation, clamping, zero-delay rejection), and the
   headline contract — a sharded network run is digest-identical to the
   serial run, over fixed points and a qcheck sweep with MRAI and
   fail/recover schedules. *)

module C = Abrr_core.Config
module N = Abrr_core.Network
module Sim = Eventsim.Sim
module ES = Eventsim.Sharded
module Time = Eventsim.Time
module S = Snapshot

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok_digest net =
  match S.digest net with
  | Ok d -> d
  | Error e -> Alcotest.failf "digest failed: %s" e

(* ------------------------------------------------------------------ *)
(* Safe-horizon arithmetic *)

let test_horizon () =
  check_int "plain sum" 15 (ES.horizon ~next:5 ~lookahead:10);
  check_int "zero next" 7 (ES.horizon ~next:0 ~lookahead:7);
  check_int "overflow clamps" max_int (ES.horizon ~next:(max_int - 3) ~lookahead:10);
  check_int "max lookahead clamps" max_int (ES.horizon ~next:1 ~lookahead:max_int);
  check_int "exact fit" max_int (ES.horizon ~next:(max_int - 10) ~lookahead:10)

let test_create_rejects () =
  let master = Sim.create_reified () in
  let reject name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  reject "zero lookahead" (fun () ->
      ES.create ~master ~shards:2 ~lookahead:0 ~owner:(fun _ -> 0)
        ~exec:(fun ~shard:_ _ -> ())
        ());
  reject "negative lookahead" (fun () ->
      ES.create ~master ~shards:2 ~lookahead:(-5) ~owner:(fun _ -> 0)
        ~exec:(fun ~shard:_ _ -> ())
        ());
  reject "zero shards" (fun () ->
      ES.create ~master ~shards:0 ~lookahead:10 ~owner:(fun _ -> 0)
        ~exec:(fun ~shard:_ _ -> ())
        ())

(* ------------------------------------------------------------------ *)
(* Toy programs over the raw engine.

   Payload = node * 100 + hops. A firing node with hops > 0 schedules
   itself (local delay) and its successor ring neighbour at a delay
   picked by whether the hop crosses a shard boundary — the same
   program runs serially and sharded, so the master trace sink must
   record the exact same stream. *)

let toy_nodes = 4

let toy_shard_of k node = node * k / toy_nodes

let toy_cross_delay = 50
let toy_local_delay = 3

(* One shared step function; [schedule] abstracts over serial/sharded. *)
let toy_step ~k ~schedule p =
  let node = p / 100 and hops = p mod 100 in
  if hops > 0 then begin
    let succ_node = (node + 1) mod toy_nodes in
    let delay target =
      if toy_shard_of k target <> toy_shard_of k node then toy_cross_delay
      else toy_local_delay
    in
    schedule ~kind:1 ~actor:node ~detail:hops ~delay:(delay node)
      ((node * 100) + (hops - 1));
    schedule ~kind:2 ~actor:succ_node ~detail:hops ~delay:(delay succ_node)
      ((succ_node * 100) + (hops - 1))
  end

let toy_seed sim =
  for node = 0 to toy_nodes - 1 do
    Sim.schedule_at sim ~kind:3 ~actor:node ~time:(node * 2)
      ((node * 100) + 5)
  done

let toy_serial () =
  let sim = Sim.create_reified () in
  let sink = Sim.Trace.make ~capacity:4096 ~sample_every:1 () in
  Sim.set_sink sim sink;
  Sim.set_exec sim (fun p ->
      toy_step ~k:1 ~schedule:(fun ~kind ~actor ~detail ~delay q ->
          Sim.schedule sim ~kind ~actor ~detail ~delay q)
        p);
  toy_seed sim;
  ignore (Sim.run sim);
  (sim, sink)

(* NB: [k] here fixes the *delay pattern* (which hops count as cross);
   [shards] is how many shards actually execute it. Equal for the
   determinism tests; the serial reference replays pattern [k] on one
   queue. *)
let toy_serial_pattern k =
  let sim = Sim.create_reified () in
  let sink = Sim.Trace.make ~capacity:4096 ~sample_every:1 () in
  Sim.set_sink sim sink;
  Sim.set_exec sim (fun p ->
      toy_step ~k ~schedule:(fun ~kind ~actor ~detail ~delay q ->
          Sim.schedule sim ~kind ~actor ~detail ~delay q)
        p);
  toy_seed sim;
  ignore (Sim.run sim);
  (sim, sink)

let toy_sharded k =
  let master = Sim.create_reified () in
  let sink = Sim.Trace.make ~capacity:4096 ~sample_every:1 () in
  Sim.set_sink master sink;
  toy_seed master;
  let engine = ref None in
  let eng =
    ES.create ~master ~shards:k ~lookahead:toy_cross_delay
      ~owner:(fun p -> toy_shard_of k (p / 100))
      ~exec:(fun ~shard p ->
        let eng = Option.get !engine in
        toy_step ~k
          ~schedule:(fun ~kind ~actor ~detail ~delay q ->
            ES.schedule eng ~shard ~kind ~actor ~detail ~delay q)
          p)
      ()
  in
  engine := Some eng;
  let outcome = ES.run eng in
  ES.shutdown eng;
  (master, sink, outcome, ES.stats eng)

let entries_of sink =
  List.map
    (fun (e : Sim.Trace.entry) ->
      (e.Sim.Trace.time, e.Sim.Trace.kind, e.Sim.Trace.actor,
       e.Sim.Trace.depth, e.Sim.Trace.detail))
    (Sim.Trace.entries sink)

let test_toy_determinism () =
  List.iter
    (fun k ->
      let ssim, ssink = toy_serial_pattern k in
      let master, msink, outcome, stats = toy_sharded k in
      check_bool (Printf.sprintf "k=%d quiescent" k) true (outcome = Sim.Quiescent);
      check_int
        (Printf.sprintf "k=%d processed" k)
        (Sim.events_processed ssim)
        (Sim.events_processed master);
      check_int (Printf.sprintf "k=%d clock" k) (Sim.now ssim) (Sim.now master);
      check_int
        (Printf.sprintf "k=%d next_seq" k)
        (Sim.next_seq ssim) (Sim.next_seq master);
      check_int (Printf.sprintf "k=%d pending" k) 0 (Sim.pending master);
      check_bool
        (Printf.sprintf "k=%d identical event stream" k)
        true
        (entries_of ssink = entries_of msink);
      check_int (Printf.sprintf "k=%d stats.shards" k) k stats.ES.shards;
      if k > 1 then
        check_bool
          (Printf.sprintf "k=%d crossed the boundary" k)
          true (stats.ES.cross_events > 0))
    [ 1; 2; 4 ]

(* Cross-shard deliveries keep their scheduling (FIFO) order: one event
   on shard 0 emits three messages to shard 1 at the same arrival time;
   they must execute in emission order. *)
let test_cross_shard_fifo () =
  let master = Sim.create_reified () in
  let sink = Sim.Trace.make ~sample_every:1 () in
  Sim.set_sink master sink;
  Sim.schedule_at master ~kind:9 ~actor:0 ~time:0 0;
  let engine = ref None in
  let eng =
    ES.create ~master ~shards:2 ~lookahead:10
      ~owner:(fun p -> if p = 0 then 0 else 1)
      ~exec:(fun ~shard p ->
        if p = 0 then
          List.iter
            (fun d ->
              ES.schedule (Option.get !engine) ~shard ~kind:1 ~actor:1
                ~detail:d ~delay:10 (100 + d))
            [ 1; 2; 3 ])
      ()
  in
  engine := Some eng;
  ignore (ES.run eng);
  ES.shutdown eng;
  let details = List.map (fun (e : Sim.Trace.entry) -> e.Sim.Trace.detail)
      (Sim.Trace.entries sink)
  in
  check_bool "emission order preserved" true (details = [ 0; 1; 2; 3 ]);
  check_int "all routed cross-shard" 3 (ES.stats eng).ES.cross_events

let test_lookahead_violation_detected () =
  let master = Sim.create_reified () in
  Sim.schedule_at master ~time:0 0;
  let engine = ref None in
  let eng =
    ES.create ~master ~shards:2 ~lookahead:100
      ~owner:(fun p -> if p = 0 then 0 else 1)
      ~exec:(fun ~shard p ->
        if p = 0 then
          (* delay 10 < lookahead 100: lands inside the window *)
          ES.schedule (Option.get !engine) ~shard ~delay:10 1)
      ()
  in
  engine := Some eng;
  (match ES.run eng with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "lookahead violation not detected");
  ES.shutdown eng

let test_schedule_guards () =
  let master = Sim.create_reified () in
  let eng =
    ES.create ~master ~shards:2 ~lookahead:10
      ~owner:(fun p -> p mod 2)
      ~exec:(fun ~shard:_ _ -> ())
      ()
  in
  (* outside event execution *)
  (match ES.schedule eng ~shard:0 ~delay:5 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "schedule outside exec accepted");
  ES.shutdown eng;
  let master2 = Sim.create_reified () in
  Sim.schedule_at master2 ~time:0 0;
  let engine = ref None in
  let eng2 =
    ES.create ~master:master2 ~shards:2 ~lookahead:10
      ~owner:(fun p -> if p >= 100 then 99 else p mod 2)
      ~exec:(fun ~shard p ->
        if p = 0 then ES.schedule (Option.get !engine) ~shard ~delay:10 100)
      ()
  in
  engine := Some eng2;
  (match ES.run eng2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range owner accepted");
  ES.shutdown eng2

(* The window is bounded by the *global* minimum pending time — a shard
   whose next event (an MRAI-style deadline far in the future) lies
   beyond the horizon sits the window out and is counted as stalled. *)
let test_stall_and_windows () =
  let master = Sim.create_reified () in
  (* shard 0: a chain at t=0,3,6,...; shard 1: nothing until t=1000 *)
  Sim.schedule_at master ~time:0 5;
  (* node 0 hops 5, stays local *)
  Sim.schedule_at master ~time:1000 101;
  let engine = ref None in
  let eng =
    ES.create ~master ~shards:2 ~lookahead:10
      ~owner:(fun p -> if p >= 100 then 1 else 0)
      ~exec:(fun ~shard p ->
        if p < 100 && p > 0 then
          ES.schedule (Option.get !engine) ~shard ~delay:3 (p - 1))
      ()
  in
  engine := Some eng;
  let outcome = ES.run eng in
  ES.shutdown eng;
  let stats = ES.stats eng in
  check_bool "quiescent" true (outcome = Sim.Quiescent);
  check_int "all processed" 7 (Sim.events_processed master);
  check_bool "multiple windows" true (stats.ES.windows >= 2);
  check_bool "far-future shard stalled" true (stats.ES.stalls >= 1);
  check_int "no cross traffic" 0 stats.ES.cross_events

(* ------------------------------------------------------------------ *)
(* Deterministic network workloads (as in suite_snapshot) *)

let prefixes =
  (* spread across the address space so a multi-AP partition actually
     splits them *)
  Array.init 8 (fun i -> Helpers.pfx (Printf.sprintf "%d.%d.0.0/16" (8 + (i * 30)) i))

let mk_ops ~n ~seed ~count =
  let state = ref ((seed * 2) + 1) in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let ops =
    List.init count (fun k ->
        let t = Time.ms (40 * (k + 1)) in
        let router = rand n in
        let prefix = prefixes.(rand (Array.length prefixes)) in
        let op =
          if rand 4 = 0 then
            N.Withdraw
              { router; neighbor = Helpers.neighbor router; prefix; path_id = 0 }
          else
            N.Inject
              {
                router;
                neighbor = Helpers.neighbor router;
                route = Helpers.route ~asn:(7000 + rand 4) ~prefix router;
              }
        in
        (t, op))
  in
  let victim = rand (n - 1) + 1 in
  ops
  @ [
      (Time.ms (40 * (count / 2)), N.Fail victim);
      (Time.ms (40 * count), N.Recover victim);
    ]

let multi_ap_abrr ?mrai n =
  C.make ?mrai ~n_routers:n ~igp:(Helpers.flat_igp n)
    ~scheme:
      (C.abrr
         ~partition:(Abrr_core.Partition.uniform 4)
         [| [ 0 ]; [ 2 ]; [ 4 ]; [ 6 ] |])
    ()

let schemes =
  [
    ("full-mesh", fun () -> Helpers.full_mesh_config 8);
    ("full-mesh+mrai", fun () -> Helpers.full_mesh_config ~mrai:(Time.ms 500) 8);
    ("abrr-4ap", fun () -> multi_ap_abrr 8);
    ("abrr-4ap+mrai", fun () -> multi_ap_abrr ~mrai:(Time.ms 400) 8);
    ( "tbrr",
      fun () ->
        C.make ~n_routers:8 ~igp:(Helpers.flat_igp 8)
          ~scheme:
            (C.tbrr
               [
                 { C.trrs = [ 0; 1 ]; clients = [ 2; 3 ] };
                 { C.trrs = [ 4 ]; clients = [ 5; 6; 7 ] };
               ])
          () );
  ]

let prepare cfg ops =
  let net = N.create cfg in
  List.iter (fun (t, op) -> N.at_op net t op) ops;
  net

let serial_quiesce net =
  match N.run ~max_events:2_000_000 net with
  | Sim.Quiescent -> ()
  | o -> Alcotest.failf "serial run did not converge: %a" Sim.pp_outcome o

let sharded_quiesce net ~jobs =
  match N.Sharded.run ~max_events:2_000_000 net ~jobs with
  | Sim.Quiescent, stats -> stats
  | o, _ -> Alcotest.failf "sharded run did not converge: %a" Sim.pp_outcome o

let state_fingerprint net =
  ( ok_digest net,
    Sim.events_processed (N.sim net),
    Sim.now (N.sim net),
    N.best_changes net,
    Abrr_core.Counters.to_fields (N.total_counters net) )

(* The headline contract on a fixed point: digests, processed counts,
   clocks, Loc-RIB change counts and every measurement counter agree. *)
let sharded_equals_serial ~scheme_i ~seed ~jobs () =
  let cfg () = (snd (List.nth schemes scheme_i)) () in
  let ops = mk_ops ~n:8 ~seed ~count:28 in
  let serial = prepare (cfg ()) ops in
  serial_quiesce serial;
  let sharded = prepare (cfg ()) ops in
  let stats = sharded_quiesce sharded ~jobs in
  check_int "stats.shards" jobs stats.N.Sharded.shards;
  if state_fingerprint serial <> state_fingerprint sharded then
    Alcotest.failf "sharded(jobs=%d) diverged from serial on %s/seed=%d"
      jobs (fst (List.nth schemes scheme_i)) seed

let test_network_jobs2 = sharded_equals_serial ~scheme_i:2 ~seed:42 ~jobs:2
let test_network_jobs4_mrai = sharded_equals_serial ~scheme_i:3 ~seed:7 ~jobs:4
let test_network_jobs2_tbrr = sharded_equals_serial ~scheme_i:4 ~seed:9 ~jobs:2

(* Trace sinks observe the same stream: sampling countdown, ring
   wraparound and queue depths included. *)
let test_sink_equality () =
  let mk () =
    let net = prepare (multi_ap_abrr 8) (mk_ops ~n:8 ~seed:5 ~count:24) in
    let sink = Sim.Trace.make ~capacity:64 ~sample_every:3 () in
    Sim.set_sink (N.sim net) sink;
    (net, sink)
  in
  let serial, ssink = mk () in
  serial_quiesce serial;
  let sharded, msink = mk () in
  ignore (sharded_quiesce sharded ~jobs:2);
  let state s =
    Sim.Trace.
      ( (capacity s, sample_every s, until_sample s),
        (seen s, recorded s, entries s) )
  in
  check_bool "sink states identical" true (state ssink = state msink)

(* Probe firing counts match serially (barrier granularity changes when
   a probe runs, never how often) — with the runtime invariant checker
   as the probe, which also proves barrier states are consistent. *)
let test_probe_and_invariants () =
  let ops = mk_ops ~n:8 ~seed:13 ~count:24 in
  let count_fires net =
    let fires = ref 0 in
    Sim.set_probe (N.sim net) ~every:97 (fun () -> incr fires);
    fires
  in
  let serial = prepare (multi_ap_abrr 8) ops in
  let sf = count_fires serial in
  serial_quiesce serial;
  let sharded = prepare (multi_ap_abrr 8) ops in
  let mf = count_fires sharded in
  ignore (sharded_quiesce sharded ~jobs:2);
  check_int "probe fired equally often" !sf !mf;
  check_bool "probes fired at all" true (!sf > 0);
  (* and the real invariant checker holds at barriers *)
  let checked = prepare (multi_ap_abrr 8) ops in
  Verify.Invariant.install ~every:500 checked;
  ignore (sharded_quiesce checked ~jobs:2);
  Verify.Invariant.check_now checked;
  Verify.Invariant.uninstall checked

(* Digest sequence at barriers: each barrier state must equal the state
   of a fresh serial run paused at the same processed count. *)
let test_barrier_digest_sequence () =
  let ops = mk_ops ~n:8 ~seed:21 ~count:20 in
  let sharded = prepare (multi_ap_abrr 8) ops in
  let samples = ref [] in
  let tick = ref 0 in
  (match
     N.Sharded.run ~max_events:2_000_000 sharded ~jobs:2
       ~on_barrier:(fun () ->
         incr tick;
         if !tick mod 7 = 0 then
           samples :=
             (Sim.events_processed (N.sim sharded), ok_digest sharded)
             :: !samples)
   with
  | Sim.Quiescent, _ -> ()
  | o, _ -> Alcotest.failf "did not converge: %a" Sim.pp_outcome o);
  let samples = List.rev !samples in
  check_bool "collected barrier samples" true (List.length samples >= 2);
  List.iteri
    (fun i (events, digest) ->
      if i < 3 then begin
        let replay = prepare (multi_ap_abrr 8) ops in
        (match N.run ~max_events:events replay with
        | Sim.Event_limit -> ()
        | o -> Alcotest.failf "replay ended early: %a" Sim.pp_outcome o);
        check_string
          (Printf.sprintf "barrier digest @%d events" events)
          digest (ok_digest replay)
      end)
    samples

(* Event_limit has barrier granularity: the run may overshoot, but its
   state equals a serial run limited to the count actually processed. *)
let test_event_limit_contract () =
  let ops = mk_ops ~n:8 ~seed:31 ~count:24 in
  (* calibrate the budget to half the workload's actual event count *)
  let total = prepare (multi_ap_abrr 8) ops in
  serial_quiesce total;
  let budget = max 1 (Sim.events_processed (N.sim total) / 2) in
  let sharded = prepare (multi_ap_abrr 8) ops in
  match N.Sharded.run ~max_events:budget sharded ~jobs:2 with
  | Sim.Event_limit, _ ->
    let m = Sim.events_processed (N.sim sharded) in
    check_bool "processed at least the budget" true (m >= budget);
    let replay = prepare (multi_ap_abrr 8) ops in
    (match N.run ~max_events:m replay with
    | Sim.Event_limit -> ()
    | o -> Alcotest.failf "replay outcome: %a" Sim.pp_outcome o);
    check_string "paused state equals serial at same count" (ok_digest replay)
      (ok_digest sharded);
    (* and resuming serially from the sharded pause converges identically *)
    serial_quiesce sharded;
    serial_quiesce replay;
    check_string "resumed digests equal" (ok_digest replay) (ok_digest sharded)
  | o, _ -> Alcotest.failf "expected Event_limit, got %a" Sim.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Plan *)

let test_plan_clamps () =
  let cfg = Helpers.full_mesh_config 6 in
  (match N.Sharded.plan cfg ~jobs:0 with
  | Ok p ->
    check_int "jobs=0 -> one shard" 1 p.N.Sharded.shards;
    check_int "single shard: unbounded lookahead" max_int p.N.Sharded.lookahead
  | Error e -> Alcotest.fail e);
  (match N.Sharded.plan cfg ~jobs:100 with
  | Ok p -> check_int "jobs clamped to routers" 6 p.N.Sharded.shards
  | Error e -> Alcotest.fail e);
  match N.Sharded.plan cfg ~jobs:3 with
  | Ok p ->
    check_int "three shards" 3 p.N.Sharded.shards;
    Array.iter
      (fun s -> check_bool "shard in range" true (s >= 0 && s < 3))
      p.N.Sharded.shard_of;
    check_bool "lookahead positive and bounded by hold_time" true
      (p.N.Sharded.lookahead > 0 && p.N.Sharded.lookahead <= N.hold_time)
  | Error e -> Alcotest.fail e

let test_plan_ap_colocation () =
  let arrs = [| [ 0; 5 ]; [ 2 ]; [ 4; 1 ]; [ 6 ] |] in
  let cfg =
    C.make ~n_routers:8 ~igp:(Helpers.flat_igp 8)
      ~scheme:(C.abrr ~partition:(Abrr_core.Partition.uniform 4) arrs)
      ()
  in
  match N.Sharded.plan cfg ~jobs:2 with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Array.iteri
      (fun ap routers ->
        match routers with
        | [] -> ()
        | first :: rest ->
          List.iter
            (fun r ->
              check_int
                (Printf.sprintf "AP %d ARRs colocated" ap)
                p.N.Sharded.shard_of.(first) p.N.Sharded.shard_of.(r))
            rest)
      arrs

let test_plan_first_ap_wins () =
  (* router 1 serves both APs; it stays with AP 0's shard *)
  let cfg =
    C.make ~n_routers:4 ~igp:(Helpers.flat_igp 4)
      ~scheme:
        (C.abrr ~partition:(Abrr_core.Partition.uniform 2) [| [ 0; 1 ]; [ 1; 3 ] |])
      ()
  in
  match N.Sharded.plan cfg ~jobs:2 with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check_int "router 1 on AP 0's shard" p.N.Sharded.shard_of.(0)
      p.N.Sharded.shard_of.(1);
    check_int "AP 1's other ARR on shard 1" 1 p.N.Sharded.shard_of.(3)

let test_plan_zero_delay_rejected () =
  let cfg =
    C.make ~link_delay:(fun _ _ -> 0) ~n_routers:4 ~igp:(Helpers.flat_igp 4)
      ~scheme:C.Full_mesh ()
  in
  (match N.Sharded.plan cfg ~jobs:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero link delay accepted for 2 shards");
  (* one shard never crosses a boundary, so it stays legal *)
  match N.Sharded.plan cfg ~jobs:1 with
  | Ok p -> check_int "one shard fine" 1 p.N.Sharded.shards
  | Error e -> Alcotest.fail e

let test_plan_cached_until_repartition () =
  let cfg =
    C.make ~n_routers:8 ~igp:(Helpers.flat_igp 8)
      ~scheme:(C.abrr ~partition:(Abrr_core.Partition.uniform 2) [| [ 0 ]; [ 3 ] |])
      ()
  in
  let net = N.create cfg in
  let shard_of p =
    match p with Ok p -> p.N.Sharded.shard_of | Error e -> Alcotest.fail e
  in
  let first = N.Sharded.plan_of net ~jobs:2 in
  check_bool "same jobs: cached plan" true (N.Sharded.plan_of net ~jobs:2 == first);
  check_int "AP 1's ARR moved to shard 1" 1 (shard_of first).(3);
  N.repartition net ~partition:(Abrr_core.Partition.uniform 2) ~arrs:[| [ 0 ]; [ 7 ] |];
  let after = N.Sharded.plan_of net ~jobs:2 in
  check_bool "repartition drops the cached plan" true (after != first);
  check_bool "recomputed from the new ARR table" true
    (shard_of after = shard_of (N.Sharded.plan cfg ~jobs:2));
  check_int "router 3 back on its range shard" 0 (shard_of after).(3)

let test_sharded_run_guards () =
  (* hooks are closures run from worker domains: rejected *)
  let net = prepare (multi_ap_abrr 8) (mk_ops ~n:8 ~seed:3 ~count:8) in
  N.on_best_change net (fun _ _ _ -> ());
  (match N.Sharded.run net ~jobs:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hooks accepted under sharded run");
  (* a pending Thunk has no owner: rejected *)
  let net2 = prepare (multi_ap_abrr 8) [] in
  N.at net2 (Time.ms 5) (fun () -> ());
  (match N.Sharded.run net2 ~jobs:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pending Thunk accepted under sharded run")

(* ------------------------------------------------------------------ *)
(* Property: sharded(jobs = k) = serial, over random seed / scheme / k,
   schedules including MRAI timers and a fail/recover pair. *)

let sharded_matches_serial (seed, scheme_i, k_i) =
  let jobs = [| 1; 2; 4 |].(k_i) in
  let cfg () = (snd (List.nth schemes (scheme_i mod List.length schemes))) () in
  let ops = mk_ops ~n:8 ~seed ~count:20 in
  let serial = prepare (cfg ()) ops in
  serial_quiesce serial;
  let sharded = prepare (cfg ()) ops in
  ignore (sharded_quiesce sharded ~jobs);
  state_fingerprint serial = state_fingerprint sharded

let prop_sharded =
  QCheck.Test.make ~name:"sharded(jobs=k) = serial (any seed/scheme/k)"
    ~count:10
    QCheck.(
      triple (int_bound 999) (int_bound (List.length schemes - 1))
        (int_bound 2))
    sharded_matches_serial

let suite =
  ( "sharded",
    [
      Alcotest.test_case "safe-horizon arithmetic" `Quick test_horizon;
      Alcotest.test_case "engine creation guards" `Quick test_create_rejects;
      Alcotest.test_case "toy program determinism (k=1,2,4)" `Quick
        test_toy_determinism;
      Alcotest.test_case "cross-shard FIFO order" `Quick test_cross_shard_fifo;
      Alcotest.test_case "lookahead violation detected" `Quick
        test_lookahead_violation_detected;
      Alcotest.test_case "schedule guards" `Quick test_schedule_guards;
      Alcotest.test_case "windows + stalls accounting" `Quick
        test_stall_and_windows;
      Alcotest.test_case "network: jobs=2 digest-identical" `Quick
        test_network_jobs2;
      Alcotest.test_case "network: jobs=4 + MRAI digest-identical" `Quick
        test_network_jobs4_mrai;
      Alcotest.test_case "network: jobs=2 TBRR digest-identical" `Quick
        test_network_jobs2_tbrr;
      Alcotest.test_case "trace sinks identical" `Quick test_sink_equality;
      Alcotest.test_case "probe counts + invariants at barriers" `Quick
        test_probe_and_invariants;
      Alcotest.test_case "barrier digest sequence = serial prefixes" `Quick
        test_barrier_digest_sequence;
      Alcotest.test_case "event-limit pause = serial pause" `Quick
        test_event_limit_contract;
      Alcotest.test_case "plan: clamping + lookahead" `Quick test_plan_clamps;
      Alcotest.test_case "plan: AP ARR colocation" `Quick
        test_plan_ap_colocation;
      Alcotest.test_case "plan: first AP wins" `Quick test_plan_first_ap_wins;
      Alcotest.test_case "plan: zero delay rejected" `Quick
        test_plan_zero_delay_rejected;
      Alcotest.test_case "plan: cached until repartition" `Quick
        test_plan_cached_until_repartition;
      Alcotest.test_case "run guards: hooks + thunks" `Quick
        test_sharded_run_guards;
      QCheck_alcotest.to_alcotest prop_sharded;
    ] )
