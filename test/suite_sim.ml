open Eventsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_fifo_same_time () =
  let sim = Sim.create () in
  let order = ref [] in
  Sim.schedule sim ~delay:(Time.ms 5) (fun () -> order := 1 :: !order);
  Sim.schedule sim ~delay:(Time.ms 5) (fun () -> order := 2 :: !order);
  Sim.schedule sim ~delay:(Time.ms 5) (fun () -> order := 3 :: !order);
  ignore (Sim.run sim);
  check_bool "fifo" true (List.rev !order = [ 1; 2; 3 ])

let test_time_order () =
  let sim = Sim.create () in
  let order = ref [] in
  Sim.schedule sim ~delay:(Time.ms 10) (fun () -> order := `B :: !order);
  Sim.schedule sim ~delay:(Time.ms 1) (fun () -> order := `A :: !order);
  ignore (Sim.run sim);
  check_bool "order" true (List.rev !order = [ `A; `B ])

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref Time.zero in
  Sim.schedule sim ~delay:(Time.sec 3) (fun () -> seen := Sim.now sim);
  ignore (Sim.run sim);
  check_int "clock" (Time.sec 3) !seen

let test_nested_scheduling () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Sim.schedule sim ~delay:(Time.ms 1) tick
  in
  Sim.schedule sim ~delay:Time.zero tick;
  check_bool "quiescent" true (Sim.run sim = Sim.Quiescent);
  check_int "all ticks" 5 !count;
  check_int "events" 5 (Sim.events_processed sim)

let test_deadline () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~delay:(Time.sec 10) (fun () -> fired := true);
  check_bool "deadline" true (Sim.run ~until:(Time.sec 5) sim = Sim.Deadline);
  check_bool "not fired" false !fired;
  check_bool "resume" true (Sim.run sim = Sim.Quiescent);
  check_bool "fired" true !fired

let test_event_limit () =
  let sim = Sim.create () in
  let rec forever () = Sim.schedule sim ~delay:(Time.ms 1) forever in
  Sim.schedule sim ~delay:Time.zero forever;
  check_bool "limit" true (Sim.run ~max_events:100 sim = Sim.Event_limit)

let test_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:(Time.ms 1) (fun () ->
      check_bool "past rejected" true
        (try
           Sim.schedule_at sim ~time:Time.zero (fun () -> ());
           false
         with Invalid_argument _ -> true));
  ignore (Sim.run sim)

let test_negative_delay () =
  let sim = Sim.create () in
  check_bool "negative" true
    (try
       Sim.schedule sim ~delay:(-1) (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_determinism () =
  let run () =
    let sim = Sim.create ~seed:5 () in
    let log = Buffer.create 64 in
    for i = 1 to 20 do
      let d = Eventsim.Prng.int (Sim.rng sim) 1000 in
      Sim.schedule sim ~delay:d (fun () ->
          Buffer.add_string log (Printf.sprintf "%d@%d;" i (Sim.now sim)))
    done;
    ignore (Sim.run sim);
    Buffer.contents log
  in
  check_bool "deterministic" true (run () = run ())

(* Popping allocates nothing: the run loop reads the heap top and pops
   without an option, so a no-op executor leaves dispatch itself at
   zero words per event. *)
let test_run_allocation () =
  let sim = Sim.create_reified () in
  Sim.set_exec sim (fun (_ : int) -> ());
  let n = 10_000 in
  for i = 0 to n - 1 do
    Sim.push sim ~kind:1 ~actor:(i mod 7) ~detail:0 ~time:(i mod 97) i
  done;
  let before = Gc.minor_words () in
  let outcome = Sim.run sim in
  let words = Gc.minor_words () -. before in
  check_bool "quiescent" true (outcome = Sim.Quiescent);
  check_int "all processed" n (Sim.events_processed sim);
  if words >= float_of_int n then
    Alcotest.failf "run allocated %.2f words per event" (words /. float_of_int n)

let test_time_units () =
  check_int "ms" 1_000 (Time.ms 1);
  check_int "sec" 1_000_000 (Time.sec 1);
  check_int "minutes" 60_000_000 (Time.minutes 1);
  check_int "day" (24 * 3600 * 1_000_000) (Time.days 1);
  check_bool "to_sec" true (Time.to_sec (Time.sec 2) = 2.0)

let suite =
  ( "eventsim",
    [
      Alcotest.test_case "FIFO at same timestamp" `Quick test_fifo_same_time;
      Alcotest.test_case "time ordering" `Quick test_time_order;
      Alcotest.test_case "clock advances" `Quick test_clock_advances;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "deadline and resume" `Quick test_deadline;
      Alcotest.test_case "event limit" `Quick test_event_limit;
      Alcotest.test_case "rejects past scheduling" `Quick test_rejects_past;
      Alcotest.test_case "rejects negative delay" `Quick test_negative_delay;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "run allocates nothing per event" `Quick
        test_run_allocation;
      Alcotest.test_case "time units" `Quick test_time_units;
    ] )
