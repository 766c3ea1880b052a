open Helpers
module N = Abrr_core.Network
module C = Abrr_core.Config
module R = Abrr_core.Router

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = pfx "20.0.0.0/16"

(* Standard two-cluster layout over 8 routers:
   cluster 0: TRRs {0,1}, clients {4,5}; cluster 1: TRRs {2,3}, clients {6,7}. *)
let two_clusters ?multipath ?med_mode () =
  let clusters =
    [
      { C.trrs = [ 0; 1 ]; clients = [ 4; 5 ] };
      { C.trrs = [ 2; 3 ]; clients = [ 6; 7 ] };
    ]
  in
  C.make ?med_mode ~n_routers:8 ~igp:(flat_igp 8) ~scheme:(C.tbrr ?multipath clusters) ()

let test_cross_cluster_propagation () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~prefix 4);
  quiesce net;
  for i = 0 to 7 do
    if i <> 4 then
      check_bool (Printf.sprintf "r%d" i) true (N.best_exit net ~router:i prefix = Some 4)
  done

let test_withdraw_propagates () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~prefix 4);
  quiesce net;
  N.withdraw net ~router:4 ~neighbor:(neighbor 4) prefix ~path_id:0;
  quiesce net;
  List.iter (fun e -> check_bool "withdrawn" true (e = None)) (exits net prefix)

let test_reflection_attributes () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~prefix 4);
  quiesce net;
  (* a remote client's stored route carries ORIGINATOR_ID and CLUSTER_LIST *)
  let stored =
    List.concat_map
      (fun trr -> R.received_set (N.router net 6) ~from:trr prefix)
      [ 2; 3 ]
  in
  check_bool "has stored" true (stored <> []);
  List.iter
    (fun (r : Bgp.Route.t) ->
      check_bool "originator set" true
        (Bgp.Route.originator_id r = Some (C.loopback 4));
      check_bool "cluster list nonempty" true ((Bgp.Route.cluster_list r) <> []))
    stored

let test_not_returned_to_sender () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~prefix 4);
  quiesce net;
  (* the injecting client never receives its own route back *)
  check_bool "no echo" true
    (List.for_all
       (fun trr -> R.received_set (N.router net 4) ~from:trr prefix = [])
       [ 0; 1 ])

let test_trr_to_trr_no_reflection_of_mesh_routes () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~prefix 4);
  quiesce net;
  (* TRR 2's best is mesh-learned; its out_mesh must not carry it *)
  let c2 = N.router net 2 in
  check_bool "trr2 knows" true (R.best c2 prefix <> None);
  (* counters sanity: TRR 0 generated updates for both groups *)
  check_bool "trr0 generated" true
    ((N.counters net 0).Abrr_core.Counters.updates_generated > 0)

let test_dual_cluster_client () =
  (* a client in two clusters receives reflections from all four TRRs *)
  let clusters =
    [
      { C.trrs = [ 0 ]; clients = [ 2; 4 ] };
      { C.trrs = [ 1 ]; clients = [ 2; 5 ] };
    ]
  in
  let cfg = C.make ~n_routers:6 ~igp:(flat_igp 6) ~scheme:(C.tbrr clusters) () in
  let net = N.create cfg in
  inject net ~router:4 (route ~prefix 4);
  quiesce net;
  check_bool "from trr0" true (R.received_set (N.router net 2) ~from:0 prefix <> []);
  check_bool "from trr1" true (R.received_set (N.router net 2) ~from:1 prefix <> []);
  check_bool "resolves" true (N.best_exit net ~router:2 prefix = Some 4)

let test_multipath_advertises_set () =
  let net =
    N.create (two_clusters ~multipath:true ~med_mode:Bgp.Decision.Per_neighbor_as ())
  in
  inject net ~router:4 (route ~asn:7000 ~prefix 4);
  inject net ~router:6 (route ~asn:8000 ~prefix 6);
  quiesce net;
  (* with multipath TBRR the client receives the full best-AS-level set *)
  let cfgd = two_clusters ~multipath:true () in
  ignore cfgd;
  let stored5 =
    List.concat_map
      (fun trr -> R.received_set (N.router net 5) ~from:trr prefix)
      [ 0; 1 ]
  in
  (* best-only storage keeps one per TRR, but the reflector set has 2 *)
  check_bool "client stored" true (stored5 <> []);
  let out = R.rib_out_entries (N.router net 0) in
  check_bool "trr rib-out holds multiple" true (out >= 2)

(* A multipath TRR reflects its clients' routes in candidate order:
   managed sources descending, so equal routes arriving from clients 5,
   2, 4 and 3 (in that order) get path ids in the order 5, 4, 3, 2, and
   a client storing full sets keeps them so. *)
let test_multipath_candidate_order () =
  let cfg =
    C.make ~store_full_sets:true ~med_mode:Bgp.Decision.Always_compare ~n_routers:8
      ~igp:(flat_igp 8)
      ~scheme:(C.tbrr ~multipath:true [ { C.trrs = [ 0 ]; clients = [ 1; 2; 3; 4; 5; 6; 7 ] } ])
      ()
  in
  let net = N.create cfg in
  List.iter (fun k -> inject net ~router:k (route ~prefix k)) [ 5; 2; 4; 3 ];
  quiesce net;
  Alcotest.(check (list (pair int int)))
    "owners and path ids"
    [ (5, 1); (4, 2); (3, 3); (2, 4) ]
    (List.map
       (fun (r : Bgp.Route.t) -> (owner_of_route r, r.Bgp.Route.path_id))
       (R.received_set (N.router net 7) ~from:0 prefix))

let test_single_path_hides_diversity () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~asn:7000 ~prefix 4);
  inject net ~router:6 (route ~asn:8000 ~prefix 6);
  quiesce net;
  (* single-path TBRR: client 5 knows at most one route per TRR and both
     TRRs of its cluster agree, so diversity is hidden *)
  let stored =
    List.concat_map
      (fun trr -> R.received_set (N.router net 5) ~from:trr prefix)
      [ 0; 1 ]
  in
  let distinct =
    List.sort_uniq compare (List.map owner_of_route stored)
  in
  check_int "one visible exit" 1 (List.length distinct)

let test_rib_in_accounting () =
  let net = N.create (two_clusters ()) in
  inject net ~router:4 (route ~prefix 4);
  inject net ~router:6 (route ~prefix:(pfx "21.0.0.0/16") 6);
  quiesce net;
  let trr0 = N.router net 0 in
  check_bool "managed > 0" true (R.rib_in_managed trr0 > 0);
  check_bool "unmanaged > 0" true (R.rib_in_unmanaged trr0 > 0);
  check_int "total" (R.rib_in_managed trr0 + R.rib_in_unmanaged trr0)
    (R.rib_in_entries trr0)

let suite =
  ( "tbrr",
    [
      Alcotest.test_case "cross-cluster propagation" `Quick
        test_cross_cluster_propagation;
      Alcotest.test_case "withdraw propagates" `Quick test_withdraw_propagates;
      Alcotest.test_case "RFC4456 reflection attrs" `Quick test_reflection_attributes;
      Alcotest.test_case "not returned to sender" `Quick test_not_returned_to_sender;
      Alcotest.test_case "mesh export rules" `Quick
        test_trr_to_trr_no_reflection_of_mesh_routes;
      Alcotest.test_case "client in two clusters" `Quick test_dual_cluster_client;
      Alcotest.test_case "multipath candidate order" `Quick
        test_multipath_candidate_order;
      Alcotest.test_case "multipath TBRR set" `Quick test_multipath_advertises_set;
      Alcotest.test_case "single-path hides diversity" `Quick
        test_single_path_hides_diversity;
      Alcotest.test_case "RIB-In accounting" `Quick test_rib_in_accounting;
    ] )
