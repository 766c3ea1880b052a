(* Traced mode: per-layer attribution from outside the library.

   [hooks] replace each network's executor with a replica of
   [Network.exec_payload] built only from public calls ([Router.receive],
   [process_now], [flush_peer], [purge_peer], [refresh_to] and the
   [Network] operations). Each call runs inside a span that records its
   wall time and the minor-heap words it allocated, with the routing
   event being stepped as its cause. Aggregates are exact; raw spans are
   kept for every 64th routing event only.

   After the traced pass reaches quiescence, [probe] times public
   functions on inputs harvested during the run: the decision kernel,
   [Proto.coalesce], wire sizing, RIB stores and the snapshot codec. *)

module N = Abrr_core.Network
module R = Abrr_core.Router
module P = Abrr_core.Proto
module C = Abrr_core.Counters
module Sim = Eventsim.Sim

let now_ns = Pass.now_ns

(* {1 Layers reached from the executor} *)

type layer = Receive | Process_now | Flush | Purge | Refresh | Op

let layer_index = function
  | Receive -> 0
  | Process_now -> 1
  | Flush -> 2
  | Purge -> 3
  | Refresh -> 4
  | Op -> 5

let layer_name = function
  | Receive -> "router.receive"
  | Process_now -> "router.process_now"
  | Flush -> "router.flush_peer"
  | Purge -> "router.purge_peer"
  | Refresh -> "router.refresh_to"
  | Op -> "network.op"

type agg = { mutable calls : int; mutable ns : int; mutable words : float }

type span = { cause : int; layer : layer; start_ns : int; dur_ns : int; words : float }

(* What one phase (feed or trace) accumulates. *)
type phase_acc = {
  aggs : agg array;  (** by [layer_index] *)
  mutable events : int;
  mutable depths : int array;  (** histogram: queue depth -> events *)
  mutable c0 : C.t;
  mutable counters : C.t;  (** network totals, phase delta *)
  mutable best0 : int;
  mutable best_changes : int;
  mutable gc0 : Gc.stat;
  mutable gc1 : Gc.stat;
}

let new_phase () =
  let g = Gc.quick_stat () in
  {
    aggs = Array.init 6 (fun _ -> { calls = 0; ns = 0; words = 0. });
    events = 0;
    depths = Array.make 1024 0;
    c0 = C.create ();
    counters = C.create ();
    best0 = 0;
    best_changes = 0;
    gc0 = g;
    gc1 = g;
  }

type t = {
  feed : phase_acc;
  trace : phase_acc;
  mutable cur : phase_acc option;  (** [None] outside feed and trace *)
  mutable net : N.t option;
  mutable cause : int;  (** routing event being stepped; -1 in the feed *)
  mutable spans : span list;
  mutable deliveries : int;
  mutable harvest : P.item list list;  (** every 16th delivered item list *)
}

let create () =
  {
    feed = new_phase ();
    trace = new_phase ();
    cur = None;
    net = None;
    cause = -1;
    spans = [];
    deliveries = 0;
    harvest = [];
  }

let record_depth acc d =
  if d >= Array.length acc.depths then begin
    let a = Array.make (2 * (d + 1)) 0 in
    Array.blit acc.depths 0 a 0 (Array.length acc.depths);
    acc.depths <- a
  end;
  acc.depths.(d) <- acc.depths.(d) + 1

(* The closure is built by the caller, so its own words fall outside the
   measured interval. *)
let span t acc layer f =
  let w0 = Gc.minor_words () in
  let s = now_ns () in
  f ();
  let e = now_ns () in
  let words = Gc.minor_words () -. w0 in
  let a = acc.aggs.(layer_index layer) in
  a.calls <- a.calls + 1;
  a.ns <- a.ns + (e - s);
  a.words <- a.words +. words;
  if acc == t.trace && t.cause mod 64 = 0 then
    t.spans <- { cause = t.cause; layer; start_ns = s; dur_ns = e - s; words } :: t.spans

let run_op net = function
  | N.Inject { router; neighbor; route } -> N.inject net ~router ~neighbor route
  | N.Withdraw { router; neighbor; prefix; path_id } ->
    N.withdraw net ~router ~neighbor prefix ~path_id
  | N.Originate { router; route } -> N.originate net ~router route
  | N.Withdraw_local { router; prefix; path_id } ->
    R.withdraw_local (N.router net router) prefix ~path_id
  | N.Fail i -> N.fail net ~router:i
  | N.Recover i -> N.recover net ~router:i

let exec t net payload =
  match t.cur with
  | None -> failwith "traced executor: event outside the feed and trace phases"
  | Some acc -> (
    acc.events <- acc.events + 1;
    record_depth acc (Sim.pending (N.sim net));
    match payload with
    | N.Deliver { src; dst; bytes; msgs; items } ->
      t.deliveries <- t.deliveries + 1;
      if t.deliveries mod 16 = 0 then t.harvest <- items :: t.harvest;
      let r = N.router net dst in
      span t acc Receive (fun () -> R.receive r ~src ~items ~bytes ~msgs)
    | N.Process i ->
      let r = N.router net i in
      span t acc Process_now (fun () -> R.process_now r)
    | N.Mrai_flush { router; peer } ->
      let r = N.router net router in
      span t acc Flush (fun () -> R.flush_peer r ~peer)
    | N.Purge { router; peer } ->
      let r = N.router net router in
      span t acc Purge (fun () -> R.purge_peer r ~peer)
    | N.Establish { router; peer } ->
      let r = N.router net router in
      if R.is_up r then span t acc Refresh (fun () -> R.refresh_to r ~peer)
    | N.Op op -> span t acc Op (fun () -> run_op net op)
    | N.Thunk f -> f ())

let net_of t =
  match t.net with Some n -> n | None -> failwith "traced: no network yet"

let open_phase t acc =
  let net = net_of t in
  acc.c0 <- C.copy (N.total_counters net);
  acc.best0 <- N.best_changes net;
  acc.gc0 <- Gc.quick_stat ();
  t.cur <- Some acc

let close_phase t =
  match t.cur with
  | None -> ()
  | Some acc ->
    let net = net_of t in
    acc.counters <- C.diff ~after:(N.total_counters net) ~before:acc.c0;
    acc.best_changes <- N.best_changes net - acc.best0;
    acc.gc1 <- Gc.quick_stat ();
    t.cur <- None

let hooks t =
  {
    Pass.on_network =
      (fun net ->
        t.net <- Some net;
        Sim.set_exec (N.sim net) (exec t net));
    on_phase =
      (fun p ->
        close_phase t;
        match p with
        | Pass.Feed -> open_phase t t.feed
        | Pass.Checkpoint -> ()
        | Pass.Trace -> open_phase t t.trace);
    on_event = (fun i -> t.cause <- i);
  }

(* {1 Metrics} *)

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

let depth_quantile acc q =
  let total = Array.fold_left ( + ) 0 acc.depths in
  let target = q *. fi total in
  let rec go i seen =
    if i >= Array.length acc.depths then i - 1
    else
      let seen = seen + acc.depths.(i) in
      if fi seen >= target && seen > 0 then i else go (i + 1) seen
  in
  go 0 0

let depth_max acc =
  let m = ref 0 in
  Array.iteri (fun i n -> if n > 0 then m := i) acc.depths;
  !m

(* Per-phase metrics. [step_s] is the wall spent inside the phase's run
   calls, [inject] the feed's eBGP injection (calls, wall), which runs
   outside the executor. *)
let phase_metrics name acc ~step_s ~inject =
  let a l = acc.aggs.(layer_index l) in
  let spans_s =
    Array.fold_left (fun s (g : agg) -> s +. (fi g.ns /. 1e9)) 0. acc.aggs
  in
  let rcv = a Receive and proc = a Process_now and op = a Op in
  let op_calls, op_s =
    match inject with
    | Some (calls, s) -> (op.calls + calls, (fi op.ns /. 1e9) +. s)
    | None -> (op.calls, fi op.ns /. 1e9)
  in
  let c = acc.counters in
  let runs = fi c.C.decisions_run in
  let dispatch_s = step_s -. spans_s in
  let m k v = (name ^ "." ^ k, v) in
  [
    m "sim.events" (fi acc.events);
    m "sim.dispatch_self_s" dispatch_s;
    m "sim.dispatch_ns_per_event" (ratio (dispatch_s *. 1e9) (fi acc.events));
    m "sim.queue_depth_p50" (fi (depth_quantile acc 0.5));
    m "sim.queue_depth_max" (fi (depth_max acc));
    m "router.receive.calls" (fi rcv.calls);
    m "router.receive.self_s" (fi rcv.ns /. 1e9);
    m "router.receive.words_per_call" (ratio rcv.words (fi rcv.calls));
    m "router.process_now.calls" (fi proc.calls);
    m "router.process_now.self_s" (fi proc.ns /. 1e9);
    m "router.process_now.ns_per_call" (ratio (fi proc.ns) (fi proc.calls));
    m "router.process_now.words_per_call" (ratio proc.words (fi proc.calls));
    m "network.op.calls" (fi op_calls);
    m "network.op.self_s" op_s;
    m "decide.runs" runs;
    m "decide.full" (fi c.C.decisions_full);
    m "decide.delta" (fi c.C.decisions_delta);
    m "decide.skipped" (fi c.C.decisions_skipped);
    m "decide.noop_share" (ratio (fi c.C.decisions_skipped) runs);
    m "decide.change_ratio" (ratio (fi acc.best_changes) runs);
    m "rib.touches" (fi c.C.rib_touches);
    m "export.updates_generated" (fi c.C.updates_generated);
    m "export.messages" (fi c.C.messages_transmitted);
    m "export.bytes_per_update"
      (ratio (fi c.C.bytes_transmitted) (fi c.C.updates_transmitted));
    m "gc.minor_collections" (fi (acc.gc1.Gc.minor_collections - acc.gc0.Gc.minor_collections));
    m "gc.major_collections" (fi (acc.gc1.Gc.major_collections - acc.gc0.Gc.major_collections));
    m "gc.top_heap_mb" (fi acc.gc1.Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.);
  ]

(* {1 Probes on harvested inputs, at quiescence} *)

let time f =
  let w0 = Gc.minor_words () in
  let s = now_ns () in
  f ();
  (now_ns () - s, Gc.minor_words () -. w0)

let probe t net =
  let n = N.router_count net in
  (* the decision kernel: every router x known prefix *)
  let dec_ns = ref 0 and dec_words = ref 0. and dec_calls = ref 0 in
  for i = 0 to n - 1 do
    let r = N.router net i in
    let ps = R.known_prefixes r in
    let ns, w = time (fun () -> List.iter (fun p -> ignore (R.recomputed_best r p)) ps) in
    dec_ns := !dec_ns + ns;
    dec_words := !dec_words +. w;
    dec_calls := !dec_calls + List.length ps
  done;
  let lists = t.harvest in
  let items = List.fold_left (fun s l -> s + List.length l) 0 lists in
  let co_ns, _ = time (fun () -> List.iter (fun l -> ignore (P.coalesce l)) lists) in
  let kept = List.fold_left (fun s l -> s + List.length (P.coalesce l)) 0 lists in
  let deltas = List.map (List.map snd) lists in
  let wire_ns, _ =
    time (fun () -> List.iter (fun ds -> ignore (P.wire_size ~add_paths:true ds)) deltas)
  in
  let pairs = List.concat_map (List.map (fun (d : P.delta) -> (d.P.prefix, d.P.routes))) deltas in
  let rib = Bgp.Rib.create () in
  let set_ns, _ = time (fun () -> List.iter (fun (p, rs) -> Bgp.Rib.set rib p rs) pairs) in
  let get_ns, _ = time (fun () -> List.iter (fun (p, _) -> ignore (Bgp.Rib.get rib p)) pairs) in
  let npairs = fi (List.length pairs) in
  (* the snapshot codec on the final state *)
  let enc_ns, bytes =
    let s = now_ns () in
    match Snapshot.encode net with
    | Ok b -> (now_ns () - s, b)
    | Error e -> Pass.fail "traced encode: %s" e
  in
  let fresh = N.create (N.config net) in
  let dec_snap_ns, _ =
    time (fun () ->
        match Snapshot.decode fresh bytes with
        | Ok () -> ()
        | Error e -> Pass.fail "traced decode: %s" e)
  in
  let placements = ref 0 in
  for i = 0 to n - 1 do
    let r = N.router net i in
    placements :=
      !placements + R.loc_rib_entries r + R.rib_in_entries r + R.rib_out_entries r
      + R.rib_out_client_entries r + R.ebgp_entries r
  done;
  [
    ("decision.recomputed_best_ns", ratio (fi !dec_ns) (fi !dec_calls));
    ("decision.recomputed_best_words", ratio !dec_words (fi !dec_calls));
    ("proto.coalesce_ns_per_item", ratio (fi co_ns) (fi items));
    ("proto.coalesce_keep_ratio", ratio (fi kept) (fi items));
    ("wire.size_ns_per_delta", ratio (fi wire_ns) (fi items));
    ("rib.set_ns", ratio (fi set_ns) npairs);
    ("rib.get_ns", ratio (fi get_ns) npairs);
    ("snapshot.encode_s", fi enc_ns /. 1e9);
    ("snapshot.decode_s", fi dec_snap_ns /. 1e9);
    ("snapshot.bytes", fi (String.length bytes));
    ("snapshot.bytes_per_placement", ratio (fi (String.length bytes)) (fi !placements));
  ]

(* {1 Raw spans} *)

let write_spans t path =
  let oc = open_out path in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"cause\":%d,\"layer\":%S,\"start_ns\":%d,\"dur_ns\":%d,\"words\":%.0f}\n"
        s.cause (layer_name s.layer) s.start_ns s.dur_ns s.words)
    (List.rev t.spans);
  close_out oc

(* {1 A traced pass}

   Serial whatever the workload: the sharded engine runs the library's
   own executor. The invariant sweep and the probes run at quiescence,
   outside every timed phase. *)

let pass ?spans ~workload ~seed ~dir () =
  let t = create () in
  let probes = ref [] in
  let on_final net =
    close_phase t;
    Verify.Invariant.check_now net;
    probes := probe t net
  in
  let r = Pass.run ~hooks:(hooks t) ~on_final ~workload ~jobs:1 ~seed ~dir () in
  Option.iter (write_spans t) spans;
  ( r,
    phase_metrics "feed" t.feed ~step_s:r.Pass.feed_step_s
      ~inject:(Some (r.Pass.routes, r.Pass.inject_s))
    @ phase_metrics "trace" t.trace ~step_s:r.Pass.trace_step_s ~inject:None
    @ !probes )
