(* Metrics.Emit (JSON codec + bench records + diffing) and the
   Eventsim.Sim observability hooks (trace sink, phase timers). *)

module E = Metrics.Emit
module Sim = Eventsim.Sim
module Time = Eventsim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* ---- JSON codec ---------------------------------------------------- *)

let parse_ok s =
  match E.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_values () =
  check_bool "null" true (parse_ok "null" = E.Null);
  check_bool "true" true (parse_ok "true" = E.Bool true);
  check_bool "int" true (parse_ok "-42" = E.Int (-42));
  check_bool "float" true (parse_ok "2.5" = E.Float 2.5);
  check_bool "exp floats parse" true
    (match parse_ok "1e3" with E.Float f -> f = 1000. | _ -> false);
  check_bool "array" true
    (parse_ok "[1, 2]" = E.Arr [ E.Int 1; E.Int 2 ]);
  check_bool "nested obj" true
    (parse_ok {|{"a": {"b": []}}|}
    = E.Obj [ ("a", E.Obj [ ("b", E.Arr []) ]) ])

let test_json_string_escapes () =
  (* encoder escapes, parser restores *)
  let tricky = "q\"b\\s/\n\t\r\x0c\x08\x01é€" in
  let round = parse_ok (E.to_string ~compact:true (E.Str tricky)) in
  check_bool "escape round-trip" true (round = E.Str tricky);
  (* \uXXXX decoding, including a surrogate pair *)
  check_bool "bmp escape" true (parse_ok {|"é"|} = E.Str "\xc3\xa9");
  check_bool "surrogate pair" true
    (parse_ok {|"😀"|} = E.Str "\xf0\x9f\x98\x80")

let test_json_rejects () =
  let bad s =
    match E.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> check_bool "error is descriptive" true (String.length e > 0)
  in
  List.iter bad
    [ ""; "{"; "tru"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul";
      "{\"a\" 1}"; "[1 2]"; "--3" ]

let test_json_non_finite () =
  check_str "nan encodes as null" "null" (E.to_string ~compact:true (E.Float Float.nan));
  check_str "inf encodes as null" "null"
    (E.to_string ~compact:true (E.Float Float.infinity))

(* ---- record round-trip --------------------------------------------- *)

let sample_summary =
  Metrics.Summary.of_list [ 1.; 2.; 3.; 10. ]

let sample_record =
  {
    E.experiment = "unit";
    runs =
      [
        E.run ~label:"plain \"quoted\" label" ~scheme:"abrr"
          ~knobs:[ ("n_prefixes", 1000.); ("aps", 8.) ]
          ~wall_s:1.25 ~sim_s:3600.5 ~events:123456
          ~counters:[ ("updates_received", 42); ("rib_touches", 7) ]
          ~summaries:[ ("queue_depth", sample_summary) ]
          ~phases:[ ("snapshot", 0.75); ("trace", 0.25) ]
          [
            E.metric ~unit_:"entries" "rib_in_avg" 321.5;
            E.metric ~unit_:"ns" ~gate:false "decision.best" 84.2;
          ];
        E.run ~label:"empty" [];
      ];
  }

let test_record_roundtrip () =
  let text = E.to_string (E.record_to_json sample_record) in
  match Result.bind (E.of_string text) E.record_of_json with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "identical after round-trip" true (r = sample_record)

let test_record_file_roundtrip () =
  let path = Filename.temp_file "emit" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      E.write_file path sample_record;
      match E.read_file path with
      | Error e -> Alcotest.fail e
      | Ok r -> check_bool "file round-trip" true (r = sample_record))

let test_record_rejects () =
  let bad j =
    match Result.bind (E.of_string j) E.record_of_json with
    | Ok _ -> Alcotest.failf "accepted %s" j
    | Error _ -> ()
  in
  bad {|{"experiment": "x", "runs": []}|};
  (* no schema *)
  bad {|{"schema": 99, "experiment": "x", "runs": []}|};
  (* unknown version *)
  bad {|{"schema": 1, "runs": []}|};
  (* no experiment *)
  bad {|{"schema": 1, "experiment": "x"}|};
  (* no runs *)
  bad {|{"schema": 1, "experiment": "x", "runs": [{"scheme": "y"}]}|}
(* run without label *)

let test_filename () =
  check_str "filename" "BENCH_fig67.json" (E.filename "fig67")

(* ---- diffing ------------------------------------------------------- *)

let gated ds = List.filter (fun d -> d.E.d_gated) ds
let ungated ds = List.filter (fun d -> not d.E.d_gated) ds

let test_diff_identical () =
  check_int "no drift on identical records" 0
    (List.length
       (E.diff ~threshold:0. ~baseline:sample_record ~candidate:sample_record))

let with_first_run f r =
  match r.E.runs with
  | first :: rest -> { r with E.runs = f first :: rest }
  | [] -> r

let test_diff_gating () =
  (* a changed counter is a gated drift *)
  let cand =
    with_first_run
      (fun r -> { r with E.counters = [ ("updates_received", 43); ("rib_touches", 7) ] })
      sample_record
  in
  let ds = E.diff ~threshold:0. ~baseline:sample_record ~candidate:cand in
  check_int "one gated counter drift" 1 (List.length (gated ds));
  check_str "drift names the counter" "counters.updates_received"
    (List.hd (gated ds)).E.d_name;
  (* ...but tolerated under a loose threshold (43/42 is ~2.4% off) *)
  check_int "within 5% threshold" 0
    (List.length (E.diff ~threshold:0.05 ~baseline:sample_record ~candidate:cand));
  (* wall-clock noise is never gated *)
  let noisy =
    with_first_run (fun r -> { r with E.wall_s = 99. }) sample_record
  in
  let ds = E.diff ~threshold:0. ~baseline:sample_record ~candidate:noisy in
  check_int "wall_s drift is ungated" 0 (List.length (gated ds));
  check_int "wall_s drift is still reported" 1 (List.length (ungated ds));
  (* ungated metrics (ns/op) likewise *)
  let slower =
    with_first_run
      (fun r ->
        {
          r with
          E.metrics =
            [
              E.metric ~unit_:"entries" "rib_in_avg" 321.5;
              E.metric ~unit_:"ns" ~gate:false "decision.best" 840.;
            ];
        })
      sample_record
  in
  let ds = E.diff ~threshold:0. ~baseline:sample_record ~candidate:slower in
  check_int "ns/op drift is ungated" 0 (List.length (gated ds));
  check_int "ns/op drift reported" 1 (List.length (ungated ds))

let test_diff_missing () =
  (* a gated quantity missing from the candidate is a gated drift *)
  let dropped =
    with_first_run
      (fun r -> { r with E.counters = [ ("rib_touches", 7) ] })
      sample_record
  in
  let ds = E.diff ~threshold:0. ~baseline:sample_record ~candidate:dropped in
  check_int "missing gated counter drifts" 1 (List.length (gated ds));
  (* an ungated metric and a summary missing from the candidate are not
     drifts at all, so a baseline may keep fields the emitter dropped *)
  let trimmed =
    with_first_run
      (fun r ->
        { r with
          E.summaries = [];
          metrics = [ E.metric ~unit_:"entries" "rib_in_avg" 321.5 ] })
      sample_record
  in
  check_int "missing ungated metric and summary ignored" 0
    (List.length (E.diff ~threshold:0. ~baseline:sample_record ~candidate:trimmed));
  (* candidate-only quantities are ignored (schema may grow) *)
  let grown =
    with_first_run
      (fun r ->
        { r with E.counters = ("brand_new", 5) :: r.E.counters })
      sample_record
  in
  check_int "candidate-only counter ignored" 0
    (List.length (E.diff ~threshold:0. ~baseline:sample_record ~candidate:grown));
  (* a run present only in the baseline drifts as a whole *)
  let fewer = { sample_record with E.runs = [ List.hd sample_record.E.runs ] } in
  let ds = E.diff ~threshold:0. ~baseline:sample_record ~candidate:fewer in
  check_int "baseline-only run drifts" 1 (List.length (gated ds));
  check_str "whole-run drift label" "empty" (List.hd (gated ds)).E.d_run

(* ---- trace sink ---------------------------------------------------- *)

(* [n] chained events, one every millisecond. *)
let chain sim n =
  let rec go k =
    if k < n then
      Sim.schedule sim ~kind:(k mod 3) ~actor:k ~delay:(Time.ms 1) (fun () ->
          go (k + 1))
  in
  go 0;
  ignore (Sim.run sim)

let test_sink_sampling () =
  let sim = Sim.create () in
  let sink = Sim.Trace.make ~capacity:8 ~sample_every:3 () in
  Sim.set_sink sim sink;
  chain sim 100;
  check_int "all events seen" 100 (Sim.Trace.seen sink);
  (* the 1st seen event and every 3rd after: 1, 4, ..., 100 *)
  check_int "every 3rd recorded" 34 (Sim.Trace.recorded sink);
  let entries = Sim.Trace.entries sink in
  check_int "ring keeps the newest capacity entries" 8 (List.length entries);
  check_bool "memory stays bounded" true
    (List.length entries <= Sim.Trace.capacity sink);
  (* entries are oldest-first with monotone sim-times *)
  let times = List.map (fun e -> e.Sim.Trace.time) entries in
  check_bool "monotone sim-time" true
    (List.sort compare times = times);
  (* metadata survives: the last recorded event is the 100th seen,
     scheduled with [~kind:(99 mod 3) ~actor:99] *)
  let last = List.nth entries 7 in
  check_int "kind recorded" (99 mod 3) last.Sim.Trace.kind;
  check_int "actor recorded" 99 last.Sim.Trace.actor;
  Sim.Trace.clear sink;
  check_int "clear resets seen" 0 (Sim.Trace.seen sink);
  check_int "clear drops entries" 0 (List.length (Sim.Trace.entries sink))

let test_sink_detached () =
  let sim = Sim.create () in
  let sink = Sim.Trace.make () in
  Sim.set_sink sim sink;
  chain sim 10;
  Sim.clear_sink sim;
  chain sim 10;
  check_int "detached sink sees nothing further" 10 (Sim.Trace.seen sink);
  check_bool "sink accessor" true (Sim.sink sim = None)

(* The sink only observes: an identical program produces identical
   results (event count, final time, RNG draws) with or without one. *)
let test_sink_no_perturbation () =
  let observe with_sink =
    let sim = Sim.create ~seed:11 () in
    if with_sink then
      Sim.set_sink sim (Sim.Trace.make ~capacity:16 ~sample_every:2 ());
    let draws = ref [] in
    let rec go k =
      if k < 50 then begin
        draws := Eventsim.Prng.int (Sim.rng sim) 1000 :: !draws;
        Sim.schedule sim ~delay:(Time.us (1 + (k mod 7))) (fun () -> go (k + 1))
      end
    in
    go 0;
    ignore (Sim.run sim);
    (Sim.events_processed sim, Sim.now sim, !draws)
  in
  check_bool "identical with and without sink" true
    (observe true = observe false)

(* ---- phase timers -------------------------------------------------- *)

let test_phases () =
  let sim = Sim.create () in
  let run_events n =
    for _ = 1 to n do
      Sim.schedule sim ~delay:(Time.ms 5) (fun () -> ())
    done;
    ignore (Sim.run sim)
  in
  Sim.phase sim "setup" (fun () -> run_events 4);
  Sim.phase sim "replay" (fun () -> run_events 6);
  Sim.phase sim "replay" (fun () -> run_events 1);
  (match Sim.phase_stats sim with
  | [ ("setup", setup); ("replay", replay) ] ->
    check_int "setup calls" 1 setup.Sim.calls;
    check_int "setup events" 4 setup.Sim.events;
    check_int "setup sim advance" (Time.ms 5) setup.Sim.sim_advance;
    check_int "replay accumulates calls" 2 replay.Sim.calls;
    check_int "replay accumulates events" 7 replay.Sim.events;
    check_int "replay sim advance" (Time.ms 10) replay.Sim.sim_advance;
    check_bool "cpu time is non-negative" true (setup.Sim.cpu_s >= 0.)
  | stats ->
    Alcotest.failf "unexpected phases: %s"
      (String.concat ", " (List.map fst stats)));
  (* the phase result is the callback's, and exceptions still account *)
  checkf "phase returns" 2.5 (Sim.phase sim "ret" (fun () -> 2.5));
  (try Sim.phase sim "boom" (fun () -> failwith "x") with Failure _ -> ());
  check_bool "partial phase accounted" true
    (List.mem_assoc "boom" (Sim.phase_stats sim));
  Sim.reset_phases sim;
  check_int "reset" 0 (List.length (Sim.phase_stats sim))

let suite =
  ( "emit",
    [
      Alcotest.test_case "json values" `Quick test_json_values;
      Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
      Alcotest.test_case "json rejects garbage" `Quick test_json_rejects;
      Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
      Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
      Alcotest.test_case "record file round-trip" `Quick test_record_file_roundtrip;
      Alcotest.test_case "record rejects" `Quick test_record_rejects;
      Alcotest.test_case "filename" `Quick test_filename;
      Alcotest.test_case "diff: identical is clean" `Quick test_diff_identical;
      Alcotest.test_case "diff: gating semantics" `Quick test_diff_gating;
      Alcotest.test_case "diff: missing quantities" `Quick test_diff_missing;
      Alcotest.test_case "sink sampling + ring buffer" `Quick test_sink_sampling;
      Alcotest.test_case "sink detach" `Quick test_sink_detached;
      Alcotest.test_case "sink does not perturb" `Quick test_sink_no_perturbation;
      Alcotest.test_case "phase timers" `Quick test_phases;
    ] )
