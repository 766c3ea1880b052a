(* The benchmark's entry point (README.md).

     run.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
             [--out DIR] [--spans FILE]
     run.exe --all [--seed S] [--seconds T] [--trace 0|1] [--out DIR]

   A run makes one pass (Pass) of one workload over each of its
   instances, the independent inputs [--seed] and [--seconds] give
   (Workload.instances), each pass in a fresh child process so that its
   peak RSS and heap are its own, and reports medians (Report). It then
   repeats instance 0 serially and without the checkpoint: that pass
   must reach the same routing outcome as the measured one. Instance 0
   must also match its pinned outcome (Pins). [--trace 1] adds a traced
   serial pass of instance 0 (Traced) and reports per-layer metrics
   instead of end-to-end ones. The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics": {name:
   {"value", "unit"}}}. [--all] runs every workload in its own child
   process. *)

open Abrr_bench
module E = Metrics.Emit

let scratch = "benchmark/out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* {1 Child: one pass}

   Parent and child are the same executable, so the child hands its
   sample over marshaled on standard output. *)

let run_pass ~workload ~seed ~jobs ~checkpoint ~traced ~spans =
  mkdir_p scratch;
  let pass, layers =
    if traced then Traced.pass ?spans ~workload ~seed ~dir:scratch ()
    else (Pass.run ~checkpoint ~workload ~jobs ~seed ~dir:scratch (), [])
  in
  let sample = { Report.pass; peak_rss_mb = Report.peak_rss_mb (); layers } in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (sample : Report.sample) []

let spawn_pass ~(workload : Workload.t) ~seed ~jobs ~checkpoint ~traced ~spans =
  let args =
    [ "--pass"; "--workload"; workload.Workload.name; "--seed"; string_of_int seed;
      "--jobs"; string_of_int jobs ]
    @ (if checkpoint then [] else [ "--uninterrupted" ])
    @ (if traced then [ "--traced" ] else [])
    @ match spans with Some f -> [ "--spans"; f ] | None -> []
  in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  set_binary_mode_in ic true;
  let sample =
    try Some (Marshal.from_channel ic : Report.sample) with End_of_file | Failure _ -> None
  in
  match (Unix.close_process_in ic, sample) with
  | Unix.WEXITED 0, Some s -> Ok s
  | Unix.WEXITED 0, None -> Error "pass printed no sample"
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "pass exited with code %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    Error (Printf.sprintf "pass killed by signal %d" s)

(* {1 Parent: a run of one workload} *)

(* [DIR/<workload>.s<seed>.<k>.json], k the first free index. Failed
   runs are written too, with [correct] = 0, so that compare.exe sees
   them. *)
let write_record dir ~name ~seed ~trace ~correct ~attempted ~failed ~instances metrics =
  mkdir_p dir;
  let rec free k =
    let p = Filename.concat dir (Printf.sprintf "%s.s%d.%d.json" name seed k) in
    if Sys.file_exists p then free (k + 1) else p
  in
  let metric (n, v) =
    let unit_ = match Spec.find n with Some m -> m.Spec.unit_ | None -> "" in
    E.metric ~unit_ ~gate:false n v
  in
  E.write_file (free 0)
    {
      E.experiment = "benchmark";
      runs =
        [ E.run ~label:name
            ~knobs:[ ("seed", float_of_int seed); ("trace", if trace then 1. else 0.) ]
            ~counters:
              [ ("correct", if correct then 1 else 0); ("attempted", attempted);
                ("failed", failed); ("instances", instances) ]
            (List.map metric metrics) ];
    }

let run_workload ~(workload : Workload.t) ~seed ~seconds ~trace ~out ~spans =
  let name = workload.Workload.name and jobs = workload.Workload.jobs in
  let t0 = Unix.gettimeofday () in
  let attempted = ref 0 and failed = ref 0 in
  (* Two kernel timings before the first pass and after each one; a
     pass's times are scaled by the four around it. *)
  let timings = ref [] in
  let time_kernel () =
    let t = List.init 2 (fun _ -> Speed.measure ~domains:jobs) in
    timings := t @ !timings;
    t
  in
  let before = ref (time_kernel ()) in
  let attempt ?(checkpoint = true) ?(traced = false) ?spans ~instance ~jobs ~expected () =
    incr attempted;
    let seed = Workload.instance_seed ~seed instance in
    let r = spawn_pass ~workload ~seed ~jobs ~checkpoint ~traced ~spans in
    let after = time_kernel () in
    let factor = Speed.factor (!before @ after) in
    before := after;
    match r with
    | Error e ->
      incr failed;
      Printf.eprintf "%s seed %d: pass failed: %s\n%!" name seed e;
      None
    | Ok s -> (
      match expected with
      | Some o when o <> s.Report.pass.Pass.outcome ->
        incr failed;
        Printf.eprintf "%s seed %d: outcome mismatch\n  expected %s\n  got      %s\n%!" name
          seed (Pass.outcome_to_string o) (Pass.outcome_to_string s.Report.pass.Pass.outcome);
        None
      | _ -> Some (factor, s))
  in
  let pin = Pins.find ~workload:name ~seed in
  let first = attempt ~instance:0 ~jobs ~expected:pin () in
  let expected = match first with Some (_, s) -> Some s.Report.pass.Pass.outcome | None -> pin in
  (* On a host slowed so much that the run passes 1.5 x [seconds], it
     starts no further instance once it has three, so that its length
     stays bounded; its inputs then depend on the host's speed. *)
  let n = Workload.instances workload ~seconds and deadline = t0 +. (1.5 *. seconds) in
  let rec more j =
    if j >= n || (j >= 3 && Unix.gettimeofday () > deadline) then []
    else
      let s = attempt ~instance:j ~jobs ~expected:None () in
      Option.to_list s @ more (j + 1)
  in
  let samples = Option.to_list first @ more 1 in
  (* Instance 0 again, serial and without the checkpoint: the resumed
     pass must reach the outcome of an uninterrupted one, and the
     sharded pass that of a serial one. *)
  let reference = attempt ~checkpoint:false ~instance:0 ~jobs:1 ~expected () in
  let traced =
    if trace then attempt ~traced:true ?spans ~instance:0 ~jobs:1 ~expected () else None
  in
  let metrics =
    match (samples, reference, traced) with
    | [], _, _ -> []
    | _, _, None -> if trace then [] else Report.end_to_end samples
    | _, Some (kr, r), Some (kt, tr) ->
      let trace_s k s = k *. s.Report.pass.Pass.trace_s in
      Report.per_layer (List.map snd samples) ~traced:tr
        ~overhead_ratio:(trace_s kt tr /. trace_s kr r) ~jobs
    | _, None, Some _ -> []
  in
  let wanted = if trace then Spec.per_layer else Spec.end_to_end in
  let correct = !failed = 0 && Report.complete wanted metrics in
  Printf.printf "%s seed %d: %d instances, %d passes in %.1f s, %d failed\n" name seed
    (List.length samples) !attempted (Unix.gettimeofday () -. t0) !failed;
  Option.iter (fun o -> Printf.printf "outcome %s\n" (Pass.outcome_to_string o)) expected;
  Printf.printf "host speed: kernel %.1f ms (reference %.1f ms), pass times x %s\n"
    (1e3 *. Metrics.Summary.median !timings) (1e3 *. Speed.reference_s)
    (String.concat " " (List.map (fun (k, _) -> Printf.sprintf "%.3f" k) samples));
  Report.print_table wanted metrics;
  if not trace then
    Printf.printf "  event latency samples: %d over %d passes\n"
      (List.fold_left (fun n (_, s) -> n + Array.length s.Report.pass.Pass.event_ms) 0 samples)
      (List.length samples);
  Option.iter
    (fun dir ->
      write_record dir ~name ~seed ~trace ~correct ~attempted:!attempted ~failed:!failed
        ~instances:(List.length samples) metrics)
    out;
  print_endline
    (E.to_string ~compact:true
       (Report.result_json ~correct ~attempted:!attempted ~failed:!failed metrics));
  correct

(* {1 --all: every workload in its own process} *)

let run_all ~seed ~seconds ~trace ~out =
  let exe = Sys.executable_name in
  let run_one ok (w : Workload.t) =
    let args =
      [ exe; "--workload"; w.Workload.name; "--seed"; string_of_int seed;
        "--seconds"; string_of_float seconds; "--trace"; (if trace then "1" else "0") ]
      @ match out with Some d -> [ "--out"; d ] | None -> []
    in
    let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
    match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> ok | _ -> false
  in
  List.fold_left run_one true Workload.catalog

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20. and trace = ref 0 in
  let all = ref false and out = ref None and spans = ref None in
  let pass = ref false and jobs = ref 1 and traced = ref false and checkpoint = ref true in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "S input seed (default 7)");
      ( "--seconds",
        Arg.Set_float seconds,
        "T about T seconds of passes; sets the instance count (default 20)" );
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run, per-layer metrics");
      ("--all", Arg.Set all, " run every workload, each in its own process");
      ("--out", Arg.String (fun d -> out := Some d), "DIR also write result records here");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE write raw traced spans here");
      ("--pass", Arg.Set pass, " (internal) run one pass, print its sample marshaled");
      ("--jobs", Arg.Set_int jobs, "J (internal, with --pass) domains");
      ("--traced", Arg.Set traced, " (internal, with --pass) traced pass");
      ("--uninterrupted", Arg.Clear checkpoint, " (internal, with --pass) skip the checkpoint");
    ]
  in
  let usage = "run.exe (--workload NAME | --all) [options]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let ok =
    if !all then run_all ~seed:!seed ~seconds:!seconds ~trace ~out:!out
    else
      match Workload.find !workload with
      | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.catalog));
        exit 2
      | Some w when !pass -> (
        try
          run_pass ~workload:w ~seed:!seed ~jobs:!jobs ~checkpoint:!checkpoint ~traced:!traced
            ~spans:!spans;
          true
        with e ->
          Printf.eprintf "%s seed %d: %s\n" w.Workload.name !seed (Printexc.to_string e);
          false)
      | Some w ->
        run_workload ~workload:w ~seed:!seed ~seconds:!seconds ~trace ~out:!out ~spans:!spans
  in
  exit (if ok then 0 else 1)
