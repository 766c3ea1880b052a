(* The benchmark's metrics: names, units, directions and, for the
   end-to-end ones, the bound by which a median may worsen before a
   change counts as a regression. BENCHMARK.json at the repository root
   mirrors these tables; README.md says what each metric measures and
   which per-layer metric should move which end-to-end one. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type metric = { name : string; unit_ : string; better : better; bound : float }

(* Bounds are a share of the parent's median, and must cover the spread
   (interquartile range over median) of ten runs with ten seeds.
   Allocation and memory bounds sit well above the spread the inputs
   alone give. Times take the largest bound: even scaled by host speed
   (Speed), they drift between sets of runs on a shared host (README.md,
   "Steadiness"). *)
let end_to_end =
  let m name unit_ better bound = { name; unit_; better; bound } in
  [
    m "setup_s" "s" Lower 0.25;
    m "feed_s" "s" Lower 0.25;
    m "checkpoint_s" "s" Lower 0.25;
    m "trace_updates_per_s" "updates/s" Higher 0.25;
    m "event_ms_p50" "ms" Lower 0.25;
    m "event_ms_p90" "ms" Lower 0.25;
    m "wall_s" "s" Lower 0.25;
    m "peak_rss_mb" "MB" Lower 0.15;
    m "feed_alloc_words_per_route" "words" Lower 0.2;
    m "trace_alloc_words_per_update" "words" Lower 0.2;
  ]

(* Metrics that are exact for a given seed: they count allocated words,
   not time. compare.exe pairs runs on the same seed and flags a pair
   whose change is worse by more than [exact_tolerance], whatever the
   bound, which has to cover the spread between seeds. *)
let per_seed_exact = [ "feed_alloc_words_per_route"; "trace_alloc_words_per_update" ]
let exact_tolerance = 0.01

(* {1 Per-layer metrics (traced runs)} *)

let per_phase =
  [
    ("sim.events", "count", Lower);
    ("sim.dispatch_self_s", "s", Lower);
    ("sim.dispatch_ns_per_event", "ns", Lower);
    ("sim.queue_depth_p50", "events", Lower);
    ("sim.queue_depth_max", "events", Lower);
    ("router.receive.calls", "count", Lower);
    ("router.receive.self_s", "s", Lower);
    ("router.receive.words_per_call", "words", Lower);
    ("router.process_now.calls", "count", Lower);
    ("router.process_now.self_s", "s", Lower);
    ("router.process_now.ns_per_call", "ns", Lower);
    ("router.process_now.words_per_call", "words", Lower);
    ("network.op.calls", "count", Lower);
    ("network.op.self_s", "s", Lower);
    ("decide.runs", "count", Lower);
    ("decide.full", "count", Lower);
    ("decide.delta", "count", Lower);
    ("decide.skipped", "count", Lower);
    ("decide.noop_share", "fraction", Higher);
    ("decide.change_ratio", "fraction", Higher);
    ("rib.touches", "count", Lower);
    ("export.updates_generated", "count", Lower);
    ("export.messages", "count", Lower);
    ("export.bytes_per_update", "B", Lower);
    ("gc.minor_collections", "count", Lower);
    ("gc.major_collections", "count", Lower);
    ("gc.top_heap_mb", "MB", Lower);
  ]

let per_layer =
  let m (name, unit_, better) = { name; unit_; better; bound = 0. } in
  List.concat_map
    (fun phase -> List.map (fun (n, u, b) -> m (phase ^ "." ^ n, u, b)) per_phase)
    [ "feed"; "trace" ]
  @ List.map m
      [
        ("decision.recomputed_best_ns", "ns", Lower);
        ("decision.recomputed_best_words", "words", Lower);
        ("proto.coalesce_ns_per_item", "ns", Lower);
        ("proto.coalesce_keep_ratio", "fraction", Lower);
        ("wire.size_ns_per_delta", "ns", Lower);
        ("rib.set_ns", "ns", Lower);
        ("rib.get_ns", "ns", Lower);
        ("snapshot.encode_s", "s", Lower);
        ("snapshot.decode_s", "s", Lower);
        ("snapshot.bytes", "B", Lower);
        ("snapshot.bytes_per_placement", "B", Lower);
        ("network.create_s", "s", Lower);
        ("setup.topo_s", "s", Lower);
        ("setup.routes_s", "s", Lower);
        ("setup.trace_s", "s", Lower);
        ("setup.network_create_s", "s", Lower);
        ("shard.windows", "count", Lower);
        ("shard.stalls", "count", Lower);
        ("shard.stall_share", "fraction", Lower);
        ("shard.cross_events", "count", Lower);
        ("shard.max_window_events", "events", Lower);
        ("shard.window_us_mean", "us", Lower);
        ("shard.team_spawns", "count", Lower);
        ("tracing.overhead_ratio", "x", Lower);
      ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
