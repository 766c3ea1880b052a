(* From passes to metrics. [run.exe] folds the samples of a run (one
   per pass, each from its own child process) into the end-to-end or
   per-layer metrics of Spec and prints them as the run's result line. *)

module E = Metrics.Emit

type sample = {
  pass : Pass.result;
  peak_rss_mb : float;  (** [VmHWM] of the pass's process *)
  layers : (string * float) list;  (** traced passes only *)
}

let peak_rss_mb () =
  let c = Abrr_core.Counters.create () in
  Abrr_core.Counters.sample_mem c;
  float_of_int c.Abrr_core.Counters.mem_peak_kb /. 1024.

let fi = float_of_int
let median f samples = Metrics.Summary.median (List.map f samples)

(* Medians over passes; latency percentiles over the pooled per-event
   samples of all passes. Each sample comes with its pass's
   Speed.factor: its times are multiplied by it, its rate divided. *)
let end_to_end (samples : (float * sample) list) =
  let ev =
    List.concat_map
      (fun (k, s) -> List.map (fun ms -> k *. ms) (Array.to_list s.pass.Pass.event_ms))
      samples
  in
  let pct q = if ev = [] then nan else Metrics.Summary.percentile ev q in
  let t f = median (fun (k, s) -> k *. f s.pass) samples in
  let m f = median (fun (_, s) -> f s.pass) samples in
  [
    ("setup_s", t (fun p -> p.Pass.setup_s));
    ("feed_s", t (fun p -> p.Pass.feed_s));
    ("checkpoint_s", t (fun p -> p.Pass.checkpoint_s));
    ( "trace_updates_per_s",
      median (fun (k, s) -> fi s.pass.Pass.trace_updates /. s.pass.Pass.trace_s /. k) samples );
    ("event_ms_p50", pct 50.);
    ("event_ms_p90", pct 90.);
    ("wall_s", t (fun p -> p.Pass.wall_s));
    ("peak_rss_mb", median (fun (_, s) -> s.peak_rss_mb) samples);
    ("feed_alloc_words_per_route", m (fun p -> p.Pass.feed_words /. fi p.Pass.routes));
    ( "trace_alloc_words_per_update",
      m (fun p -> p.Pass.trace_words /. fi p.Pass.trace_updates) );
  ]

(* The traced pass's own metrics plus what the untraced passes measured
   (set-up parts, the checkpoint's network rebuild, the run loop's
   windows) and [overhead_ratio], the traced trace wall over that of an
   untraced serial pass of the same input. *)
let per_layer samples ~traced ~overhead_ratio ~jobs =
  let m f = median (fun s -> f s.pass) samples in
  let windows p = fi p.Pass.windows in
  traced.layers
  @ [
      ("network.create_s", m (fun p -> p.Pass.restore_create_s));
      ("setup.topo_s", m (fun p -> p.Pass.topo_s));
      ("setup.routes_s", m (fun p -> p.Pass.routes_s));
      ("setup.trace_s", m (fun p -> p.Pass.trace_gen_s));
      ("setup.network_create_s", m (fun p -> p.Pass.create_s));
      ("shard.windows", m windows);
      ("shard.stalls", m (fun p -> fi p.Pass.stalls));
      ("shard.stall_share", m (fun p -> fi p.Pass.stalls /. (windows p *. fi jobs)));
      ("shard.cross_events", m (fun p -> fi p.Pass.cross_events));
      ("shard.max_window_events", m (fun p -> fi p.Pass.max_window_events));
      ( "shard.window_us_mean",
        m (fun p -> (p.Pass.feed_step_s +. p.Pass.trace_step_s) *. 1e6 /. windows p) );
      ("shard.team_spawns", m (fun p -> fi p.Pass.team_spawns));
      ("tracing.overhead_ratio", overhead_ratio);
    ]

let complete (wanted : Spec.metric list) metrics =
  List.for_all (fun (m : Spec.metric) -> List.mem_assoc m.Spec.name metrics) wanted

(* One line per metric: name, value and unit. *)
let print_table (wanted : Spec.metric list) metrics =
  List.iter
    (fun (m : Spec.metric) ->
      Option.iter
        (fun v -> Printf.printf "  %-36s %14.6g %s\n" m.Spec.name v m.Spec.unit_)
        (List.assoc_opt m.Spec.name metrics))
    wanted

let result_json ~correct ~attempted ~failed metrics =
  let entry (m : Spec.metric) =
    Option.map
      (fun v -> (m.Spec.name, E.Obj [ ("value", E.Float v); ("unit", E.Str m.Spec.unit_) ]))
      (List.assoc_opt m.Spec.name metrics)
  in
  E.Obj
    [
      ("correct", E.Bool correct);
      ("attempted", E.Int attempted);
      ("failed", E.Int failed);
      ("metrics", E.Obj (List.filter_map entry (Spec.end_to_end @ Spec.per_layer)));
    ]
