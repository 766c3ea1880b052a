(* compare.exe A_DIR B_DIR: parent runs (A) against change runs (B).

   Each directory holds result records written by [run.exe --out DIR],
   named [<workload>.s<seed>.<k>.json]: one or more per workload. A run
   of A is paired with the run of B that has the same workload, seed and
   k; runs without a partner are listed and take part in the medians
   only. For every workload x metric the tool prints both sides' median
   and quartiles over their correct runs, the change of the medians, the
   share of pairs the change won — ties count for neither — and a
   verdict:

   - REGRESSION: a run of B failed its checks; a metric A reports is
     missing from B; B's median is worse than A's by more than the
     bound; or, for a metric exact for a given seed (Spec.per_seed_exact),
     some pair that measured the same number of instances has B worse
     than A by more than Spec.exact_tolerance;
   - unresolved: the parent's own interquartile spread exceeds the
     metric's bound, and not every B run beats every A run;
   - gain: there are at least ten pairs, B won at least nine tenths of
     them, and the medians differ by more than the parent's
     interquartile distance;
   - ok: none of the above.

   Per-layer metrics have no bound and get no verdict. Exit status 1
   when anything regressed. Quartiles follow Python's
   [statistics.quantiles(values, n=4)]. *)

open Abrr_bench
module E = Metrics.Emit

let quartiles values =
  let d = Array.of_list (List.sort compare values) in
  let n = Array.length d in
  if n < 2 then (d.(0), d.(0), d.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, Metrics.Summary.median values, q 3)
  end

type run = {
  file : string;
  key : string * int * int;  (** workload, seed, k *)
  correct : bool;
  instances : int option;
  metrics : (string * float) list;
}

(* [<workload>.s<seed>.<k>.json] -> (workload, seed, k) *)
let key_of_file f =
  match List.rev (String.split_on_char '.' (Filename.chop_suffix f ".json")) with
  | k :: s :: (_ :: _ as w) when String.length s > 1 && s.[0] = 's' -> (
    match (int_of_string_opt (String.sub s 1 (String.length s - 1)), int_of_string_opt k) with
    | Some seed, Some k -> Some (String.concat "." (List.rev w), seed, k)
    | _ -> None)
  | _ -> None

let load dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         match (key_of_file f, E.read_file (Filename.concat dir f)) with
         | None, _ ->
           Printf.eprintf "skipping %s/%s: not named <workload>.s<seed>.<k>.json\n" dir f;
           None
         | _, Error e ->
           Printf.eprintf "skipping %s/%s: %s\n" dir f e;
           None
         | Some key, Ok { E.runs = [ r ]; _ } ->
           Some
             {
               file = Filename.concat dir f;
               key;
               correct = List.assoc_opt "correct" r.E.counters = Some 1;
               instances = List.assoc_opt "instances" r.E.counters;
               metrics = List.map (fun (m : E.metric) -> (m.E.name, m.E.value)) r.E.metrics;
             }
         | Some _, Ok _ ->
           Printf.eprintf "skipping %s/%s: not one run\n" dir f;
           None)

let workload_of r = let w, _, _ = r.key in w

let () =
  let a_dir, b_dir =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ ->
      prerr_endline "usage: compare.exe A_DIR B_DIR";
      exit 2
  in
  let a_runs = load a_dir and b_runs = load b_dir in
  let regressions = ref 0 in
  let regression fmt =
    Printf.ksprintf
      (fun s ->
        incr regressions;
        print_endline ("REGRESSION: " ^ s))
      fmt
  in
  List.iter
    (fun r -> if not r.correct then regression "%s failed its checks" r.file)
    b_runs;
  List.iter
    (fun r ->
      if not r.correct then Printf.printf "note: parent run %s failed its checks\n" r.file)
    a_runs;
  let has side r = List.exists (fun x -> x.key = r.key) side in
  List.iter
    (fun (side, other, r) ->
      if not (has other r) then Printf.printf "unpaired: %s has no partner in %s\n" r.file side)
    (List.map (fun r -> (b_dir, b_runs, r)) a_runs
    @ List.map (fun r -> (a_dir, a_runs, r)) b_runs);
  let workloads = List.sort_uniq compare (List.map workload_of (a_runs @ b_runs)) in
  let row workload (spec : Spec.metric) =
    let name = spec.Spec.name in
    let values runs =
      List.filter_map
        (fun r ->
          if r.correct && workload_of r = workload then
            Option.map (fun v -> (r.key, (r.instances, v))) (List.assoc_opt name r.metrics)
          else None)
        runs
    in
    let av = values a_runs and bv = values b_runs in
    match (av, bv) with
    | [], [] -> None
    | [], _ -> Some [ workload; name; "-"; "-"; "-"; "-"; "-"; "new in B" ]
    | _, [] ->
      regression "%s %s: reported by A, missing from B" workload name;
      Some [ workload; name; "-"; "-"; "-"; "-"; "-"; "REGRESSION" ]
    | _ ->
      (* how much worse y is than x, as a share of x *)
      let worse x y =
        let d = match spec.Spec.better with Spec.Lower -> y -. x | Spec.Higher -> x -. y in
        if x = 0. then (if d = 0. then 0. else Float.infinity *. d) else d /. Float.abs x
      in
      let pairs =
        List.filter_map (fun (k, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt k bv)) av
      in
      (* Same-seed exactness holds only between runs of the same inputs. *)
      let same_inputs = List.filter (fun ((n, _), (n', _)) -> n = n') pairs in
      let pairs = List.map (fun ((_, x), (_, y)) -> (x, y)) pairs in
      let av = List.map (fun (_, (_, v)) -> v) av and bv = List.map (fun (_, (_, v)) -> v) bv in
      let aq1, am, aq3 = quartiles av and bq1, bm, bq3 = quartiles bv in
      let won = List.length (List.filter (fun (x, y) -> worse x y < 0.) pairs) in
      let share = float_of_int won /. float_of_int (max 1 (List.length pairs)) in
      let change = worse am bm in
      let spread = if am = 0. then 0. else (aq3 -. aq1) /. Float.abs am in
      let all_better = List.for_all (fun y -> List.for_all (fun x -> worse x y < 0.) av) bv in
      let exact = List.mem name Spec.per_seed_exact in
      let pair_worst =
        List.fold_left (fun w ((_, x), (_, y)) -> max w (worse x y)) 0. same_inputs
      in
      let verdict =
        if spec.Spec.bound = 0. then ""
        else if exact && pair_worst > Spec.exact_tolerance then begin
          regression "%s %s: a same-seed pair is %.2f%% worse" workload name
            (100. *. pair_worst);
          "REGRESSION"
        end
        else if spread > spec.Spec.bound && not all_better then "unresolved"
        else if change > spec.Spec.bound then begin
          regression "%s %s: median %.1f%% worse" workload name (100. *. change);
          "REGRESSION"
        end
        else if
          change < 0. && List.length pairs >= 10 && share >= 0.9
          && Float.abs (bm -. am) > aq3 -. aq1
        then "gain"
        else "ok"
      in
      let fmt m q1 q3 = Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3 in
      Some
        [ workload; name; fmt am aq1 aq3; fmt bm bq1 bq3;
          Printf.sprintf "%+.1f%%" (-100. *. change);
          (if spec.Spec.bound = 0. then "-"
           else if exact then Printf.sprintf "%.0f%%, %.0f%%/pair" (100. *. spec.Spec.bound)
               (100. *. Spec.exact_tolerance)
           else Printf.sprintf "%.0f%%" (100. *. spec.Spec.bound));
          Printf.sprintf "%d/%d" won (List.length pairs); verdict ]
  in
  let rows =
    List.concat_map
      (fun w -> List.filter_map (row w) (Spec.end_to_end @ Spec.per_layer))
      workloads
  in
  Metrics.Table.print
    ~header:[ "workload"; "metric"; "A median [q1, q3]"; "B median [q1, q3]";
              "better by"; "bound"; "B won"; "verdict" ]
    rows;
  exit (if !regressions > 0 then 1 else 0)
