(* Smoke test of the benchmark at tiny sizes: every workload shape runs
   one pass of each kind the benchmark uses, in a few seconds. Checks
   that the result line carries every end-to-end metric with its unit,
   that a traced run reports every per-layer metric, and that the
   traced, resumed, uninterrupted and sharded runs of one input all
   reach the same routing outcome. *)

open Abrr_bench
module E = Metrics.Emit

let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let tiny (w : Workload.t) =
  { w with
    Workload.pops = 4; routers_per_pop = 6; peer_ases = 4; points = 3;
    prefixes = 12; trace_events = 40 }

(* The result line parses back, and names each wanted metric with its
   unit. *)
let line_has_units (wanted : Spec.metric list) metrics =
  let line =
    E.to_string ~compact:true (Report.result_json ~correct:true ~attempted:1 ~failed:0 metrics)
  in
  match E.of_string line with
  | Error _ -> false
  | Ok j ->
    List.for_all
      (fun (m : Spec.metric) ->
        match Option.bind (E.member "metrics" j) (E.member m.Spec.name) with
        | Some entry ->
          Option.bind (E.member "unit" entry) E.string_opt = Some m.Spec.unit_
          && Option.bind (E.member "value" entry) E.number <> None
        | None -> false)
      wanted

(* BENCHMARK.json at the repository root mirrors the workload and metric
   tables the benchmark runs with. *)
let mirrors_benchmark_json () =
  match E.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
    let list k = Option.value ~default:[] (Option.bind (E.member k j) E.list_opt) in
    let str k o = Option.bind (E.member k o) E.string_opt in
    let entry ~bound o =
      (str "name" o, str "unit" o, str "better" o,
       if bound then Option.bind (E.member "bound" o) E.number else None)
    in
    let metric ~bound (m : Spec.metric) =
      (Some m.Spec.name, Some m.Spec.unit_, Some (Spec.better_name m.Spec.better),
       if bound then Some m.Spec.bound else None)
    in
    check "BENCHMARK.json workloads = Workload.catalog"
      (List.map (fun o -> (str "name" o, str "why" o)) (list "workloads")
      = List.map (fun (w : Workload.t) -> (Some w.name, Some w.why)) Workload.catalog);
    check "BENCHMARK.json end_to_end = Spec.end_to_end"
      (List.map (entry ~bound:true) (list "end_to_end")
      = List.map (metric ~bound:true) Spec.end_to_end);
    check "BENCHMARK.json per_layer = Spec.per_layer"
      (List.map (entry ~bound:false) (list "per_layer")
      = List.map (metric ~bound:false) Spec.per_layer)

let () =
  mirrors_benchmark_json ();
  let seed = 7 and dir = "." in
  let outcomes =
    List.map
      (fun w ->
        let w = tiny w in
        let name = w.Workload.name in
        let jobs = w.Workload.jobs in
        let r = Pass.run ~workload:w ~jobs ~seed ~dir () in
        check (name ^ ": trace reaches iBGP") (Array.length r.Pass.event_ms > 0);
        if jobs > 1 then
          check (name ^ ": events cross shards") (r.Pass.cross_events > 0);
        let s = { Report.pass = r; peak_rss_mb = Report.peak_rss_mb (); layers = [] } in
        check
          (name ^ ": every end-to-end metric printed with its unit")
          (line_has_units Spec.end_to_end (Report.end_to_end [ (1., s) ]));
        let u = Pass.run ~checkpoint:false ~workload:w ~jobs ~seed ~dir () in
        check (name ^ ": resumed = uninterrupted") (u.Pass.outcome = r.Pass.outcome);
        let t, layers = Traced.pass ~workload:w ~seed ~dir () in
        check (name ^ ": traced = untraced") (t.Pass.outcome = r.Pass.outcome);
        let traced = { s with Report.pass = t; layers } in
        let per_layer =
          Report.per_layer [ s ] ~traced ~overhead_ratio:(t.Pass.trace_s /. r.Pass.trace_s) ~jobs
        in
        check
          (name ^ ": every per-layer metric printed with its unit")
          (line_has_units Spec.per_layer per_layer);
        (name, r.Pass.outcome))
      Workload.catalog
  in
  check "paper-1008r: serial = j2"
    (List.assoc "paper-1008r" outcomes = List.assoc "paper-1008r-j2" outcomes);
  if !failures > 0 then exit 1
