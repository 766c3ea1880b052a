(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation. Run all experiments with `dune exec bench/main.exe`, or a
   single one by name, e.g. `dune exec bench/main.exe -- fig6`.

   Each experiment also writes a machine-readable BENCH_<exp>.json
   record (see OBSERVABILITY.md): `--out DIR` redirects the files,
   `--json` echoes each record to stdout as it is written, and
   `--jobs N` fans each experiment's independent sweep points across N
   domains (gated record contents are byte-identical to `--jobs 1`;
   only the ungated wall-clock fields differ).

   `--decision naive` disables the incremental decision engine in every
   experiment (full recomputation per dirty prefix — the differential
   oracle); gated record contents are byte-identical to the default
   incremental engine, which CI proves on the deterministic profile. *)

let experiments =
  [
    ("table1", "Table 1: advertisement rules, observed live",
     fun () -> Exp_table1.run ());
    ("fig3", "Figure 3: best AS-level routes per prefix vs peer ASes",
     fun () -> ignore (Exp_fig3.run ()));
    ("fig4", "Figure 4: analytical RIB-In sizes", Exp_model_figs.run_fig4);
    ("fig5", "Figure 5: analytical RIB-Out sizes", Exp_model_figs.run_fig5);
    ("fig6+7", "Figures 6 & 7: experimental RIB sizes and update counts",
     fun () -> ignore (Exp_fig67.run ()));
    ("updates", "Sec 4.2: transmitted updates / bytes; client updates",
     fun () -> ignore (Exp_updates.run ()));
    ("anomalies", "Sec 2.3: oscillation / path-efficiency matrix",
     Exp_anomalies.run);
    ("convergence", "Sec 3.5: MRAI convergence (3 hops vs 2)", Exp_convergence.run);
    ("sessions", "Sec 3.3: reflector boot time vs session count",
     Exp_sessions.run);
    ("schemes", "All iBGP organisations on one workload", Exp_schemes.run);
    ("ablation", "Design-choice ablations", Exp_ablation.run);
    ("scale", "Memory-compact RIB at scale: RSS, throughput",
     Exp_scale.run);
    ("shard", "Sharded simulation core: digest-proven determinism and scaling",
     Exp_shard.run);
  ]

let matches arg (name, _, _) =
  name = arg || ((arg = "fig6" || arg = "fig7") && name = "fig6+7")

let run_one (name, descr, f) =
  Printf.printf "################ %s - %s ################\n\n" name descr;
  let t0 = Sys.time () in
  f ();
  Printf.printf "[%s finished in %.1fs cpu]\n\n" name (Sys.time () -. t0)

(* --scale-* knobs parameterize the `scale` experiment only; every
   other experiment is fixed-size (SCALING.md has the full paper-scale
   recipe). *)
let scale_knob_specs =
  [
    ("--scale-pops", Exp_scale.pops);
    ("--scale-routers-per-pop", Exp_scale.rpp);
    ("--scale-peer-ases", Exp_scale.peer_ases);
    ("--scale-prefixes", Exp_scale.n_prefixes);
    ("--scale-events", Exp_scale.trace_events);
    ("--scale-aps", Exp_scale.aps);
  ]

let rec parse_flags = function
  | "--json" :: rest ->
    Exp_common.echo_json := true;
    parse_flags rest
  | "--jobs" :: n :: rest ->
    (match int_of_string_opt n with
    | Some j when j >= 1 -> Exp_common.jobs := j
    | Some _ | None ->
      Printf.eprintf "--jobs %s: expected a positive integer\n" n;
      exit 1);
    parse_flags rest
  | [ "--jobs" ] ->
    prerr_endline "--jobs requires a count argument";
    exit 1
  | "--out" :: dir :: rest ->
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "--out %s: not a directory\n" dir;
      exit 1
    end;
    Exp_common.out_dir := dir;
    parse_flags rest
  | [ "--out" ] ->
    prerr_endline "--out requires a directory argument";
    exit 1
  | "--decision" :: mode :: rest ->
    (match mode with
    | "incremental" -> Exp_common.decision_mode := Abrr_core.Config.Incremental
    | "naive" -> Exp_common.decision_mode := Abrr_core.Config.Naive
    | _ ->
      Printf.eprintf "--decision %s: expected incremental or naive\n" mode;
      exit 1);
    parse_flags rest
  | [ "--decision" ] ->
    prerr_endline "--decision requires a mode argument (incremental|naive)";
    exit 1
  | "--scale-trace" :: path :: rest ->
    Exp_scale.trace_path := path;
    parse_flags rest
  | [ "--scale-trace" ] ->
    prerr_endline "--scale-trace requires a file argument";
    exit 1
  | flag :: n :: rest when List.mem_assoc flag scale_knob_specs ->
    (match int_of_string_opt n with
    | Some v when v >= 1 -> List.assoc flag scale_knob_specs := v
    | Some _ | None ->
      Printf.eprintf "%s %s: expected a positive integer\n" flag n;
      exit 1);
    parse_flags rest
  | [ flag ] when List.mem_assoc flag scale_knob_specs ->
    Printf.eprintf "%s requires an integer argument\n" flag;
    exit 1
  | flag :: _ when String.starts_with ~prefix:"--" flag ->
    Printf.eprintf "unknown flag %s\n" flag;
    exit 1
  | args -> args

let () =
  match parse_flags (List.tl (Array.to_list Sys.argv)) with
  | [] -> List.iter run_one experiments
  | args ->
    List.iter
      (fun arg ->
        match List.find_opt (matches arg) experiments with
        | Some exp -> run_one exp
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" arg
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
          exit 1)
      args
