(* One pass of a workload: setup, feed, checkpoint, trace — the paper's
   §4 method (feed a RIB snapshot, then replay an update trace) with the
   checkpoint a segmented user resumes from in between. Every pass is a
   closed loop with one client: a routing event is released only after
   the previous one has been simulated up to the next one's start.

   Each phase is timed from outside the library, around the public
   calls a user of the simulator makes. *)

module N = Abrr_core.Network
module C = Abrr_core.Counters
module Sim = Eventsim.Sim
module W = Workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* Words allocated so far by every domain, minor and direct-major. The
   minor collection first makes this domain's figure exact (otherwise
   it lags by up to a minor heap); worker domains count once joined. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* {1 Outcome}

   What a run must reproduce: the best route of every router for every
   table prefix (an MD5 of [router prefix Route.pp(best)] lines) and the
   protocol counters. Decision-class counters and the snapshot digest
   are left out on purpose, so that incremental-path and codec changes
   stay legal. *)

type outcome = { digest : string; counters : (string * int) list }

let outcome net (table : Topo.Route_gen.t) =
  let b = Buffer.create (1 lsl 16) in
  for r = 0 to N.router_count net - 1 do
    Array.iter
      (fun p ->
        let p' = Netaddr.Prefix.to_string p in
        match N.best net ~router:r p with
        | None -> Printf.bprintf b "%d %s -\n" r p'
        | Some route ->
          Buffer.add_string b (Format.asprintf "%d %s %a\n" r p' Bgp.Route.pp route))
      table.Topo.Route_gen.prefixes
  done;
  let c = N.total_counters net in
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    counters =
      [
        ("updates_received", c.C.updates_received);
        ("updates_transmitted", c.C.updates_transmitted);
        ("messages_transmitted", c.C.messages_transmitted);
        ("bytes_transmitted", c.C.bytes_transmitted);
        ("withdrawals_received", c.C.withdrawals_received);
        ("withdrawals_transmitted", c.C.withdrawals_transmitted);
        ("last_change_us", N.last_change net);
      ];
  }

let outcome_to_string o =
  String.concat " "
    (o.digest :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.counters)

(* {1 Hooks}

   The traced run sees every network a pass creates (to install its
   executor), the phase boundaries, and the routing event being
   stepped. *)

type phase = Feed | Checkpoint | Trace

type hooks = {
  on_network : N.t -> unit;
  on_phase : phase -> unit;
  on_event : int -> unit;
}

let no_hooks = { on_network = ignore; on_phase = ignore; on_event = ignore }

type result = {
  setup_s : float;
  topo_s : float;
  routes_s : float;
  trace_gen_s : float;
  create_s : float;
  feed_s : float;
  checkpoint_s : float;
  restore_create_s : float;  (** the fresh [Network.create] inside checkpoint *)
  trace_s : float;
  wall_s : float;
  event_ms : float array;
      (** wall per routing event that reached iBGP (the others are
          absorbed at their border router in microseconds) *)
  routes : int;  (** eBGP routes fed *)
  feed_words : float;
  trace_words : float;
  trace_updates : int;  (** updates_received during the trace *)
  inject_s : float;  (** [Route_gen.inject_all], inside the feed *)
  windows : int;  (** [Network.run] calls, or sharded engine windows *)
  feed_step_s : float;  (** wall inside the feed's run calls *)
  trace_step_s : float;  (** wall inside the trace's run calls *)
  stalls : int;
  cross_events : int;
  max_window_events : int;
  team_spawns : int;  (** [Network.Sharded.run] calls *)
  outcome : outcome;
}

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let expect_quiescent phase = function
  | Sim.Quiescent -> ()
  | o -> fail "%s ended %s, not quiescent" phase (Format.asprintf "%a" Sim.pp_outcome o)

let updates_received net =
  let u = ref 0 in
  for r = 0 to N.router_count net - 1 do
    u := !u + (N.counters net r).C.updates_received
  done;
  !u

(* [checkpoint:false] runs the same pass without the save/restore — the
   uninterrupted reference the resumed outcome must equal. [on_final]
   sees the network at quiescence, before it is dropped. *)
let run ?(hooks = no_hooks) ?(checkpoint = true) ?(on_final = ignore)
    ~(workload : W.t) ~jobs ~seed ~dir () =
  (* 1. setup *)
  let t0 = now_ns () in
  let topo = W.gen_topo workload ~seed in
  let t1 = now_ns () in
  let table = W.gen_table workload topo ~seed:(seed + 1) in
  let t2 = now_ns () in
  let events = W.gen_events workload table ~seed:(seed + 2) in
  let t3 = now_ns () in
  let config = W.config topo in
  let net = N.create config in
  let t4 = now_ns () in
  hooks.on_network net;
  let windows = ref 0 and step_ns = ref 0 and stalls = ref 0 and cross = ref 0 in
  let max_window = ref 0 and spawns = ref 0 in
  (* Serial passes step with [Network.run]; sharded ones call the
     conservative-window engine, which spawns its domains per call. No
     [on_barrier] hook: it would sync the master queue every window and
     triple the engine's cost. *)
  let step ?until net =
    let e0 = Sim.events_processed (N.sim net) in
    let w0 = now_ns () in
    let o =
      if jobs = 1 then begin
        let o = N.run ?until net in
        incr windows;
        max_window := max !max_window (Sim.events_processed (N.sim net) - e0);
        o
      end
      else begin
        let o, st = N.Sharded.run ?until net ~jobs in
        windows := !windows + st.N.Sharded.windows;
        stalls := !stalls + st.N.Sharded.stalls;
        cross := !cross + st.N.Sharded.cross_events;
        max_window := max !max_window st.N.Sharded.max_window_events;
        incr spawns;
        o
      end
    in
    step_ns := !step_ns + (now_ns () - w0);
    o
  in
  (* 2. feed *)
  hooks.on_phase Feed;
  let words0 = alloc_words () in
  let t5 = now_ns () in
  Topo.Route_gen.inject_all table net;
  let t5' = now_ns () in
  let o = step net in
  let t6 = now_ns () in
  let feed_step_ns = !step_ns in
  let feed_words = alloc_words () -. words0 in
  expect_quiescent "feed" o;
  (* 3. checkpoint: save the post-feed state, resume on a fresh network *)
  hooks.on_phase Checkpoint;
  let path = Filename.concat dir (Printf.sprintf "ckpt-%d.snap" (Unix.getpid ())) in
  let t7 = now_ns () in
  let net, t8, t9 =
    if not checkpoint then (net, t7, t7)
    else begin
      (match Snapshot.save net ~path with
      | Ok () -> ()
      | Error e -> fail "checkpoint save: %s" e);
      let t8 = now_ns () in
      let net = N.create config in
      let t9 = now_ns () in
      (match Snapshot.load net ~path with
      | Ok () -> ()
      | Error e -> fail "checkpoint load: %s" e);
      (net, t8, t9)
    end
  in
  let t10 = now_ns () in
  if checkpoint then Sys.remove path;
  hooks.on_network net;
  (* 4. trace: the actions are scheduled 64 routing events at a time,
     and each event is stepped up to the next one's start *)
  hooks.on_phase Trace;
  let n = Array.length events in
  let event_ms = ref [] in
  let updates0 = updates_received net in
  let words0 = alloc_words () in
  let t11 = now_ns () in
  let chunk = 64 in
  let updates = ref updates0 in
  for i = 0 to n - 1 do
    if i mod chunk = 0 then
      for j = i to min n (i + chunk) - 1 do
        Topo.Trace_gen.schedule net events.(j).W.actions
      done;
    hooks.on_event i;
    let w0 = now_ns () in
    let o =
      if i + 1 < n then step ~until:(events.(i + 1).W.start - 1) net else step net
    in
    let w1 = now_ns () in
    let u = updates_received net in
    if u > !updates then event_ms := (float_of_int (w1 - w0) /. 1e6) :: !event_ms;
    updates := u;
    if i = n - 1 then expect_quiescent "trace" o
  done;
  let t12 = now_ns () in
  let trace_words = alloc_words () -. words0 in
  let trace_updates = updates_received net - updates0 in
  on_final net;
  {
    setup_s = secs (t4 - t0);
    topo_s = secs (t1 - t0);
    routes_s = secs (t2 - t1);
    trace_gen_s = secs (t3 - t2);
    create_s = secs (t4 - t3);
    feed_s = secs (t6 - t5);
    checkpoint_s = secs (t10 - t7);
    restore_create_s = secs (t9 - t8);
    trace_s = secs (t12 - t11);
    wall_s = secs (t4 - t0 + (t6 - t5) + (t10 - t7) + (t12 - t11));
    event_ms = Array.of_list (List.rev !event_ms);
    routes = Topo.Route_gen.total_routes table;
    feed_words;
    trace_words;
    trace_updates;
    inject_s = secs (t5' - t5);
    windows = !windows;
    feed_step_s = secs feed_step_ns;
    trace_step_s = secs (!step_ns - feed_step_ns);
    stalls = !stalls;
    cross_events = !cross;
    max_window_events = !max_window;
    team_spawns = !spawns;
    outcome = outcome net table;
  }
