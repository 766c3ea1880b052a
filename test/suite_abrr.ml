open Helpers
module N = Abrr_core.Network
module C = Abrr_core.Config
module R = Abrr_core.Router
module Part = Abrr_core.Partition

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = pfx "20.0.0.0/16"

(* 6 routers; ARR for the single AP is router 0 (or 0 and 1). *)

let test_reflection_reaches_all () =
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:3 (route ~prefix 3);
  quiesce net;
  for i = 0 to 5 do
    if i <> 3 then
      check_bool (Printf.sprintf "r%d" i) true (N.best_exit net ~router:i prefix = Some 3)
  done

let test_best_as_level_set () =
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ~med_mode:Bgp.Decision.Per_neighbor_as ()) in
  (* three routes: two from AS 7000 (MED 1 beats MED 9), one from AS 8000 *)
  inject net ~router:2 (route ~asn:7000 ~med:1 ~prefix 2);
  inject net ~router:3 (route ~asn:7000 ~med:9 ~prefix 3);
  inject net ~router:4 (route ~asn:8000 ~med:50 ~prefix 4);
  quiesce net;
  let set = R.reflector_set (N.router net 0) prefix in
  check_int "two best AS-level routes" 2 (List.length set);
  let nhs = List.sort compare (List.map owner_of_route set) in
  check_bool "members" true (nhs = [ 2; 4 ])

let test_client_stores_best_only () =
  (* under always-compare MED (the paper's footnote-1 configuration) a
     client keeps a single route per ARR (§3.4) *)
  let net =
    N.create (single_ap_abrr ~arrs:[ 0 ] ~med_mode:Bgp.Decision.Always_compare ())
  in
  inject net ~router:2 (route ~asn:7000 ~prefix 2);
  inject net ~router:3 (route ~asn:8000 ~prefix 3);
  quiesce net;
  check_int "one per ARR" 1 (List.length (R.received_set (N.router net 5) ~from:0 prefix))

let test_client_stores_per_as_under_med () =
  (* per-neighbour-AS MED requires deterministic-MED storage: one stored
     route per neighbour AS in the advertised set *)
  let net =
    N.create (single_ap_abrr ~arrs:[ 0 ] ~med_mode:Bgp.Decision.Per_neighbor_as ())
  in
  inject net ~router:2 (route ~asn:7000 ~prefix 2);
  inject net ~router:3 (route ~asn:8000 ~prefix 3);
  quiesce net;
  check_int "one per AS" 2 (List.length (R.received_set (N.router net 5) ~from:0 prefix))

(* The §3.4 pick against the oracle, on a set delivered straight to
   client 5: it stores [Decision.Naive.best] over the set's reachable
   routes (one per neighbour AS under per-AS MED), and a group with no
   reachable next hop whole. Router 4 is cut off from the IGP, so routes
   with its next hop are unreachable. *)
let test_client_best_of_set_matches_naive () =
  let n = 6 in
  let igp = Igp.Graph.create ~n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if i <> 4 && j <> 4 then Igp.Graph.add_edge igp i j (100 + ((i * 7) + (j * 13) mod 23))
    done
  done;
  let reflected ~id ~asn ~med owner =
    Bgp.Route.make ~path_id:id ~med:(Some med)
      ~as_path:(Bgp.As_path.of_asns [ Bgp.Asn.of_int asn; Bgp.Asn.of_int 65500 ])
      ~prefix ~next_hop:(C.loopback owner) ()
  in
  let check med_mode set =
    let net =
      N.create
        (C.make ~med_mode ~n_routers:n ~igp
           ~scheme:(C.abrr ~partition:(Part.uniform 1) [| [ 0 ] |])
           ())
    in
    let client = N.router net 5 in
    R.receive client ~src:0 ~bytes:0 ~msgs:0
      ~items:[ (Abrr_core.Proto.From_arr, Abrr_core.Proto.delta prefix set) ];
    R.process_now client;
    let cost r = N.igp_distance net 5 (owner_of_route r) in
    let pick group =
      let reachable = List.filter (fun r -> cost r <> Igp.Spf.unreachable) group in
      let cands =
        List.map
          (fun r ->
            Bgp.Decision.candidate ~learned:Bgp.Decision.Ibgp
              ~peer_id:(C.loopback 0) ~peer_addr:(C.loopback 0) ~igp_cost:(cost r) r)
          reachable
      in
      match Bgp.Decision.Naive.best ~med_mode cands with
      | Some c -> [ c.Bgp.Decision.route ]
      | None -> group
    in
    let expected =
      match med_mode with
      | Bgp.Decision.Always_compare -> pick set
      | Bgp.Decision.Per_neighbor_as ->
        let as_of r = Bgp.Decision.neighbor_as_int r in
        let keys = List.sort_uniq compare (List.map as_of set) in
        let first k =
          let rec go i = function
            | r :: rs -> if as_of r = k then i else go (i + 1) rs
            | [] -> max_int
          in
          go 0 set
        in
        List.concat_map
          (fun k -> pick (List.filter (fun r -> as_of r = k) set))
          (List.sort (fun a b -> compare (first a) (first b)) keys)
    in
    check_bool "stored = oracle" true
      (List.equal Bgp.Route.equal (R.received_set client ~from:0 prefix) expected);
    expected
  in
  let mixed =
    [ reflected ~id:1 ~asn:7000 ~med:5 1; reflected ~id:2 ~asn:8000 ~med:9 4;
      reflected ~id:3 ~asn:7000 ~med:3 2; reflected ~id:4 ~asn:8000 ~med:1 3 ]
  in
  check_int "one best" 1 (List.length (check Bgp.Decision.Always_compare mixed));
  check_int "one per AS" 2 (List.length (check Bgp.Decision.Per_neighbor_as mixed));
  let unreachable =
    [ reflected ~id:1 ~asn:7000 ~med:5 4; reflected ~id:2 ~asn:8000 ~med:3 4 ]
  in
  check_int "unreachable kept whole" 2
    (List.length (check Bgp.Decision.Always_compare unreachable))

let test_client_stores_full_set_when_configured () =
  let cfg = single_ap_abrr ~arrs:[ 0 ] () in
  let cfg = { cfg with C.store_full_sets = true } in
  let net = N.create cfg in
  inject net ~router:2 (route ~asn:7000 ~prefix 2);
  inject net ~router:3 (route ~asn:8000 ~prefix 3);
  quiesce net;
  check_int "full set" 2 (List.length (R.received_set (N.router net 5) ~from:0 prefix))

let test_redundant_arrs_consistent () =
  let net =
    N.create (single_ap_abrr ~arrs:[ 0; 1 ] ~med_mode:Bgp.Decision.Always_compare ())
  in
  inject net ~router:2 (route ~asn:7000 ~prefix 2);
  inject net ~router:3 (route ~asn:8000 ~prefix 3);
  quiesce net;
  let s0 = R.reflector_set (N.router net 0) prefix in
  let s1 = R.reflector_set (N.router net 1) prefix in
  check_int "same size" (List.length s0) (List.length s1);
  (* clients keep one stored route per redundant ARR *)
  let stored r = List.length (R.received_set (N.router net r) ~from:0 prefix)
                 + List.length (R.received_set (N.router net r) ~from:1 prefix) in
  check_int "client stores per ARR" 2 (stored 4)

let test_arr_failure_redundancy () =
  (* with 2 ARRs, clients keep working when one ARR's routes vanish;
     simulate by withdrawing after partitioning is impossible, so instead
     verify both ARRs independently deliver the set *)
  let net = N.create (single_ap_abrr ~arrs:[ 0; 1 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  check_bool "from arr0" true (R.received_set (N.router net 4) ~from:0 prefix <> []);
  check_bool "from arr1" true (R.received_set (N.router net 4) ~from:1 prefix <> [])

let test_partitioned_aps () =
  (* 2 APs with different ARRs; routes land with the right ARR only *)
  let part = Part.uniform 2 in
  let cfg =
    C.make ~n_routers:6 ~igp:(flat_igp 6)
      ~scheme:(C.abrr ~partition:part [| [ 0 ]; [ 1 ] |])
      ()
  in
  let net = N.create cfg in
  let low = pfx "20.0.0.0/16" (* AP 0 *) in
  let high = pfx "200.0.0.0/16" (* AP 1 *) in
  inject net ~router:2 (route ~prefix:low 2);
  inject net ~router:3 (route ~prefix:high 3);
  quiesce net;
  check_bool "arr0 manages low" true (R.reflector_set (N.router net 0) low <> []);
  check_bool "arr0 not high" true (R.reflector_set (N.router net 0) high = []);
  check_bool "arr1 manages high" true (R.reflector_set (N.router net 1) high <> []);
  check_bool "arr1 not low" true (R.reflector_set (N.router net 1) low = []);
  (* all routers still learn both prefixes *)
  check_bool "r4 low" true (N.best_exit net ~router:4 low = Some 2);
  check_bool "r4 high" true (N.best_exit net ~router:4 high = Some 3);
  (* and the ARRs themselves resolve prefixes of the other AP *)
  check_bool "arr0 high" true (N.best_exit net ~router:0 high = Some 3);
  check_bool "arr1 low" true (N.best_exit net ~router:1 low = Some 2)

let test_spanning_prefix_goes_to_both () =
  let part = Part.uniform 2 in
  let cfg =
    C.make ~n_routers:4 ~igp:(flat_igp 4)
      ~scheme:(C.abrr ~partition:part [| [ 0 ]; [ 1 ] |])
      ()
  in
  let net = N.create cfg in
  let span = pfx "0.0.0.0/0" in
  inject net ~router:2 (route ~prefix:span 2);
  quiesce net;
  check_bool "arr0 has it" true (R.reflector_set (N.router net 0) span <> []);
  check_bool "arr1 has it" true (R.reflector_set (N.router net 1) span <> []);
  check_bool "r3 resolves" true (N.best_exit net ~router:3 span = Some 2)

let test_withdraw_empties_set () =
  let net = N.create (single_ap_abrr ~arrs:[ 0; 1 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  N.withdraw net ~router:2 ~neighbor:(neighbor 2) prefix ~path_id:0;
  quiesce net;
  check_bool "set empty" true (R.reflector_set (N.router net 0) prefix = []);
  List.iter (fun e -> check_bool "no route" true (e = None)) (exits net prefix)

let test_arr_is_its_own_client () =
  (* the ARR injects a route itself: internal role passing must deliver
     it to its own reflector function and to everyone else *)
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:0 (route ~prefix 0);
  quiesce net;
  check_bool "set has own route" true (R.reflector_set (N.router net 0) prefix <> []);
  check_bool "others learn" true (N.best_exit net ~router:5 prefix = Some 0)

let test_reflected_marker_present () =
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  match R.received_set (N.router net 4) ~from:0 prefix with
  | [ r ] -> check_bool "marked" true (Bgp.Route.is_reflected r)
  | _ -> Alcotest.fail "expected one stored route"

let test_client_advert_strips_marker () =
  (* when the best route is eBGP-learned the advert into iBGP never
     carries reflection attributes *)
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  match R.advertised_route (N.router net 2) prefix with
  | Some r ->
    check_bool "not marked" false (Bgp.Route.is_reflected r);
    check_bool "no cluster list" true (Bgp.Route.cluster_list r = [])
  | None -> Alcotest.fail "injector should advertise"

let test_ebgp_route_replacement () =
  let net = N.create (single_ap_abrr ~arrs:[ 0; 1 ] ()) in
  inject net ~router:2 (route ~med:10 ~prefix 2);
  quiesce net;
  inject net ~router:2 (route ~med:3 ~prefix 2);
  quiesce net;
  (match N.best net ~router:4 prefix with
  | Some r -> check_bool "new med" true (Bgp.Route.med r = Some 3)
  | None -> Alcotest.fail "no route");
  check_bool "still one set entry" true
    (List.length (R.reflector_set (N.router net 0) prefix) = 1)

(* Noop and Delta batches stay allocation-lean: on a converged client,
   [process_now] for a re-delivered reflected set (Noop), a strictly
   losing eBGP announcement and its withdrawal (both Delta) allocates
   under 80 words each, after one warm-up round. *)
let test_noop_delta_batches_allocation () =
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:2 (route ~asn:7000 ~prefix 2);
  inject net ~router:3 (route ~asn:8000 ~prefix 3);
  quiesce net;
  let client = N.router net 5 in
  let set = R.reflector_set (N.router net 0) prefix in
  let loser = route ~lp:50 ~path_id:9 ~prefix 9 in
  let batch name input =
    input ();
    let before = Gc.minor_words () in
    R.process_now client;
    let words = Gc.minor_words () -. before in
    (name, words)
  in
  let round () =
    let noop =
      batch "noop" (fun () ->
          R.receive client ~src:0 ~bytes:0 ~msgs:0
            ~items:[ (Abrr_core.Proto.From_arr, Abrr_core.Proto.delta prefix set) ])
    in
    let announce =
      batch "delta announce" (fun () ->
          R.inject_ebgp client ~neighbor:(neighbor 9) loser)
    in
    let withdraw =
      batch "delta withdraw" (fun () ->
          R.withdraw_ebgp client ~neighbor:(neighbor 9) prefix ~path_id:9)
    in
    [ noop; announce; withdraw ]
  in
  let skipped0 = (R.counters client).Abrr_core.Counters.decisions_skipped in
  let delta0 = (R.counters client).Abrr_core.Counters.decisions_delta in
  ignore (round ());
  let measured = round () in
  check_int "noops" 2 ((R.counters client).Abrr_core.Counters.decisions_skipped - skipped0);
  check_int "deltas" 4 ((R.counters client).Abrr_core.Counters.decisions_delta - delta0);
  List.iter
    (fun (name, words) ->
      if words > 80. then Alcotest.failf "%s batch allocated %.0f words" name words)
    measured

(* ARR fan-out stays allocation-lean: on a converged 40-router single-AP
   network, each ARR batch that changes the reflected set schedules one
   delivery per client, and [process_now] allocates at most 32 words per
   delivery (the Deliver event, its heap entry and the list cell), after
   one warm-up round. *)
let test_fanout_allocation () =
  let n = 40 in
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ~n ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  let arr = N.router net 0 in
  let sim = N.sim net in
  let better = Bgp.Route.update ~next_hop:(C.loopback 3) (route ~lp:200 ~prefix 3) in
  let batch name items =
    R.receive arr ~src:3 ~bytes:0 ~msgs:0 ~items;
    let pending0 = Eventsim.Sim.pending sim in
    let before = Gc.minor_words () in
    R.process_now arr;
    let words = Gc.minor_words () -. before in
    let delivered = Eventsim.Sim.pending sim - pending0 in
    ignore (N.run net);
    (name, delivered, words)
  in
  let round () =
    [
      batch "announce" [ (Abrr_core.Proto.To_arr, Abrr_core.Proto.delta prefix [ better ]) ];
      batch "withdraw"
        [ (Abrr_core.Proto.To_arr, Abrr_core.Proto.delta ~withdrawn_ids:[ 0 ] prefix []) ];
    ]
  in
  ignore (round ());
  List.iter
    (fun (name, delivered, words) ->
      check_int (name ^ " deliveries") (n - 1) delivered;
      let per = words /. float_of_int delivered in
      if per > 32. then Alcotest.failf "%s: %.1f words per delivery" name per)
    (round () @ round ())

(* The §3.4 pick reads one IGP cost per route of a reflected set without
   allocating: a client storing a changed [From_arr] set of 32 routes
   allocates at most 8 words more than one storing 4 routes, after a
   warm-up. Deliveries alternate between two next-hop ranges, so each
   one changes the set and runs the pick over all of its routes. *)
let test_pick_allocation () =
  let n = 40 in
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ~n ()) in
  let client = N.router net 5 in
  let set ~first k =
    List.init k (fun i ->
        let j = first + i in
        Bgp.Route.update ~next_hop:(C.loopback j) (route ~path_id:(i + 1) ~prefix j))
  in
  let words k =
    let deliver first =
      R.receive client ~src:0 ~bytes:0 ~msgs:0
        ~items:[ (Abrr_core.Proto.From_arr, Abrr_core.Proto.delta prefix (set ~first k)) ];
      let before = Gc.minor_words () in
      R.process_now client;
      let words = Gc.minor_words () -. before in
      ignore (N.run net);
      words
    in
    ignore (deliver 6);
    ignore (deliver 7);
    let total = deliver 6 +. deliver 7 +. deliver 6 +. deliver 7 in
    total /. 4.
  in
  let small = words 4 and large = words 32 in
  if large -. small > 8. then
    Alcotest.failf "storing 32 routes: %.1f words, 4 routes: %.1f words" large small

(* A flush sends to its destinations in ascending id order, one Deliver
   per destination carrying its items in [sort_items] order (channel,
   then prefix). Here the lower AP is served by the higher-numbered ARR,
   so the client's enqueue order (by prefix) is 4 then 1. *)
let test_flush_order () =
  let cfg =
    C.make ~n_routers:6 ~igp:(flat_igp 6)
      ~scheme:(C.abrr ~partition:(Part.uniform 2) [| [ 4 ]; [ 1 ] |])
      ()
  in
  let net = N.create cfg in
  let low0 = pfx "20.0.0.0/16" and low1 = pfx "20.1.0.0/16" in
  let high = pfx "200.0.0.0/16" in
  List.iter (fun prefix -> inject net ~router:2 (route ~prefix 2)) [ high; low1; low0 ];
  (match N.run ~max_events:1 net with
  | Eventsim.Sim.Event_limit -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Eventsim.Sim.pp_outcome o);
  let delivers =
    Eventsim.Sim.pending_events (N.sim net)
    |> List.sort (fun (a : _ Eventsim.Sim.event) b -> Int.compare a.seq b.seq)
    |> List.filter_map (fun (ev : _ Eventsim.Sim.event) ->
           match ev.payload with
           | N.Deliver { src = 2; dst; items; _ } ->
             Some (dst, List.map (fun (_, d) -> d.Abrr_core.Proto.prefix) items)
           | _ -> None)
  in
  let show (dst, ps) =
    Printf.sprintf "%d:[%s]" dst
      (String.concat ";" (List.map Netaddr.Prefix.to_string ps))
  in
  Alcotest.(check (list string))
    "deliveries in seq order"
    (List.map show [ (1, [ high ]); (4, [ low0; low1 ]) ])
    (List.map show delivers)

(* Candidate order is part of the outcome: an ARR pushes its managed
   sources in descending order, so equal routes survive in that order
   and the reflected set's path ids follow it; a client's tie-break then
   falls to the lowest peer address. Routes arrive at routers 5, 2, 4
   and 3, in that order. *)
let test_candidate_order () =
  let net =
    N.create
      (single_ap_abrr ~arrs:[ 0; 1 ] ~n:8 ~med_mode:Bgp.Decision.Always_compare ())
  in
  List.iter (fun k -> inject net ~router:k (route ~prefix k)) [ 5; 2; 4; 3 ];
  quiesce net;
  let set = R.reflector_set (N.router net 0) prefix in
  Alcotest.(check (list (pair int int)))
    "owners and path ids"
    [ (5, 1); (4, 2); (3, 3); (2, 4) ]
    (List.map (fun (r : Bgp.Route.t) -> (owner_of_route r, r.Bgp.Route.path_id)) set);
  Alcotest.(check (option int)) "router 7 exit" (Some 2) (N.best_exit net ~router:7 prefix)

let suite =
  ( "abrr",
    [
      Alcotest.test_case "flush order: destinations ascending" `Quick
        test_flush_order;
      Alcotest.test_case "candidate order: sources descending" `Quick
        test_candidate_order;
      Alcotest.test_case "ARR fan-out allocates little" `Quick
        test_fanout_allocation;
      Alcotest.test_case "reflection reaches all clients" `Quick
        test_reflection_reaches_all;
      Alcotest.test_case "best AS-level set" `Quick test_best_as_level_set;
      Alcotest.test_case "clients store best only" `Quick test_client_stores_best_only;
      Alcotest.test_case "per-AS storage under MED" `Quick
        test_client_stores_per_as_under_med;
      Alcotest.test_case "noop/delta batches allocate little" `Quick
        test_noop_delta_batches_allocation;
      Alcotest.test_case "best-of-set pick allocates little" `Quick
        test_pick_allocation;
      Alcotest.test_case "best-of-set pick = naive oracle" `Quick
        test_client_best_of_set_matches_naive;
      Alcotest.test_case "full-set storage mode" `Quick
        test_client_stores_full_set_when_configured;
      Alcotest.test_case "redundant ARRs consistent" `Quick
        test_redundant_arrs_consistent;
      Alcotest.test_case "redundancy delivery" `Quick test_arr_failure_redundancy;
      Alcotest.test_case "address partitioning" `Quick test_partitioned_aps;
      Alcotest.test_case "prefix spanning two APs" `Quick
        test_spanning_prefix_goes_to_both;
      Alcotest.test_case "withdraw empties set" `Quick test_withdraw_empties_set;
      Alcotest.test_case "ARR as its own client" `Quick test_arr_is_its_own_client;
      Alcotest.test_case "reflected marker" `Quick test_reflected_marker_present;
      Alcotest.test_case "client adverts strip reflection" `Quick
        test_client_advert_strips_marker;
      Alcotest.test_case "route replacement" `Quick test_ebgp_route_replacement;
    ] )
