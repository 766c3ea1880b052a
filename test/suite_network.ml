open Helpers
module C = Abrr_core.Config
module N = Abrr_core.Network
module R = Abrr_core.Router
module Roles = Abrr_core.Roles
module Part = Abrr_core.Partition

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = pfx "20.0.0.0/16"

let test_hooks_fire () =
  let net = N.create (full_mesh_config 4) in
  let calls = ref 0 in
  N.on_best_change net (fun _ _ _ -> incr calls);
  N.on_best_change net (fun _ _ _ -> incr calls);
  inject net ~router:1 (route ~prefix 1);
  quiesce net;
  (* 4 routers adopt the route; two hooks each *)
  check_int "hook calls" 8 !calls;
  check_int "best changes" 4 (N.best_changes net)

let test_total_counters () =
  let net = N.create (full_mesh_config 4) in
  inject net ~router:1 (route ~prefix 1);
  quiesce net;
  let total = N.total_counters net in
  check_int "tx == rx" total.Abrr_core.Counters.updates_transmitted
    total.Abrr_core.Counters.updates_received;
  check_int "bytes tx == rx" total.Abrr_core.Counters.bytes_transmitted
    total.Abrr_core.Counters.bytes_received

let test_igp_failure_reroute () =
  (* line topology 0-1-2-3; exits at both ends; router 1 prefers exit 0.
     Cutting 0-1 must reroute router 1 to exit 3 after refresh_igp. *)
  let g = Igp.Graph.create ~n:4 in
  Igp.Graph.add_edge g 0 1 10;
  Igp.Graph.add_edge g 1 2 10;
  Igp.Graph.add_edge g 2 3 10;
  (* a backup path so the graph stays connected *)
  Igp.Graph.add_edge g 0 3 100;
  let cfg = C.make ~n_routers:4 ~igp:g ~scheme:C.Full_mesh () in
  let net = N.create cfg in
  inject net ~router:0 (route ~prefix 0);
  inject net ~router:3 (route ~prefix 3);
  quiesce net;
  check_bool "before" true (N.best_exit net ~router:1 prefix = Some 0);
  check_int "igp distance" 10 (N.igp_distance net 1 0);
  Igp.Graph.remove_edge g 0 1;
  N.refresh_igp net;
  quiesce net;
  check_int "distance after" 20 (N.igp_distance net 1 3);
  check_bool "rerouted" true (N.best_exit net ~router:1 prefix = Some 3)

let test_igp_partition_drops_routes () =
  (* disconnecting the only exit invalidates the route (unreachable
     next hop) at remote routers *)
  let g = Igp.Graph.create ~n:3 in
  Igp.Graph.add_edge g 0 1 10;
  Igp.Graph.add_edge g 1 2 10;
  let cfg = C.make ~n_routers:3 ~igp:g ~scheme:C.Full_mesh () in
  let net = N.create cfg in
  inject net ~router:0 (route ~prefix 0);
  quiesce net;
  check_bool "reachable" true (N.best_exit net ~router:2 prefix = Some 0);
  Igp.Graph.remove_edge g 0 1;
  N.refresh_igp net;
  quiesce net;
  check_bool "unreachable next hop drops route" true
    (N.best net ~router:2 prefix = None)

let test_control_plane_rrs () =
  (* pure control-plane ARRs (§3.3): reflect but hold no data-plane state
     for other APs and inject nothing *)
  let part = Part.uniform 2 in
  let cfg =
    C.make ~control_plane_rrs:true ~n_routers:6 ~igp:(flat_igp 6)
      ~scheme:(C.abrr ~partition:part [| [ 0 ]; [ 1 ] |])
      ()
  in
  let net = N.create cfg in
  let low = pfx "20.0.0.0/16" and high = pfx "200.0.0.0/16" in
  inject net ~router:2 (route ~prefix:low 2);
  inject net ~router:3 (route ~prefix:high 3);
  quiesce net;
  (* clients resolve both prefixes *)
  check_bool "client low" true (N.best_exit net ~router:4 low = Some 2);
  check_bool "client high" true (N.best_exit net ~router:4 high = Some 3);
  (* ARR 0 reflects its AP but receives nothing for the other AP *)
  check_bool "arr manages own" true (R.reflector_set (N.router net 0) low <> []);
  check_bool "arr has no other-AP state" true
    (N.best net ~router:0 high = None)

let test_at_scheduling () =
  let net = N.create (full_mesh_config 3) in
  N.at net (Eventsim.Time.sec 5) (fun () -> inject net ~router:1 (route ~prefix 1));
  quiesce net;
  check_bool "applied" true (N.best_exit net ~router:0 prefix = Some 1);
  check_bool "time advanced" true (N.last_change net >= Eventsim.Time.sec 5)

let test_router_bounds () =
  let net = N.create (full_mesh_config 3) in
  check_bool "raises" true
    (try ignore (N.router net 3); false with Invalid_argument _ -> true)

let test_invalid_config_rejected () =
  let cfg = C.make ~n_routers:2 ~igp:(flat_igp 3) ~scheme:C.Full_mesh () in
  check_bool "raises" true
    (try ignore (N.create cfg); false with Invalid_argument _ -> true)

let test_multi_ap_arr () =
  (* one router serving two APs reflects both *)
  let part = Part.uniform 2 in
  let cfg =
    C.make ~n_routers:4 ~igp:(flat_igp 4)
      ~scheme:(C.abrr ~partition:part [| [ 0 ]; [ 0 ] |])
      ()
  in
  let net = N.create cfg in
  let low = pfx "20.0.0.0/16" and high = pfx "200.0.0.0/16" in
  inject net ~router:1 (route ~prefix:low 1);
  inject net ~router:2 (route ~prefix:high 2);
  quiesce net;
  let arr = N.router net 0 in
  check_bool "serves both" true (R.arr_aps arr = [ 0; 1 ]);
  check_bool "low set" true (R.reflector_set arr low <> []);
  check_bool "high set" true (R.reflector_set arr high <> []);
  check_bool "client sees both" true
    (N.best_exit net ~router:3 low = Some 1 && N.best_exit net ~router:3 high = Some 2)

let test_two_ebgp_routes_same_router () =
  (* a border router with two eBGP sessions for one prefix advertises
     its AS-level survivors; withdrawal of the better one falls back *)
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ~n:4 ()) in
  inject net ~router:2 ~k:21 (route ~asn:7000 ~med:1 ~path_id:1 ~prefix 21);
  inject net ~router:2 ~k:22 (route ~asn:8000 ~med:9 ~path_id:2 ~prefix 22);
  quiesce net;
  (* both survive steps 1-4 (different ASes) and are advertised *)
  check_int "set size" 2 (List.length (R.reflector_set (N.router net 0) prefix));
  N.withdraw net ~router:2 ~neighbor:(neighbor 21) prefix ~path_id:1;
  quiesce net;
  check_int "one left" 1 (List.length (R.reflector_set (N.router net 0) prefix));
  check_bool "still resolves" true (N.best_exit net ~router:3 prefix = Some 2)

let test_lpm_lookup () =
  let net = N.create (full_mesh_config 4) in
  let coarse = pfx "20.0.0.0/8" and fine = pfx "20.5.0.0/16" in
  inject net ~router:1 (route ~prefix:coarse 1);
  inject net ~router:2 (route ~prefix:fine 2);
  quiesce net;
  let exit_of addr =
    match N.lookup net ~router:3 (Netaddr.Ipv4.of_string addr) with
    | Some (_, r) -> Some (owner_of_route r)
    | None -> None
  in
  check_bool "specific wins" true (exit_of "20.5.9.9" = Some 2);
  check_bool "coarse covers" true (exit_of "20.200.0.1" = Some 1);
  check_bool "miss" true (exit_of "21.0.0.1" = None);
  (* withdrawing the specific falls back to the covering prefix *)
  N.withdraw net ~router:2 ~neighbor:(neighbor 2) fine ~path_id:0;
  quiesce net;
  check_bool "fallback to coarse" true (exit_of "20.5.9.9" = Some 1)

(* Reflect targets: the shared query against the per-router definition
   it replaced, [arr_targets.(ap)] = every client router outside
   [arrs.(ap)], unioned over the APs a reflect covers. *)
let old_targets (cfg : C.t) (arrs : int list array) aps =
  let is_rr r = Array.exists (List.mem r) arrs in
  let of_ap ap =
    List.filter
      (fun r -> (not (cfg.C.control_plane_rrs && is_rr r)) && not (List.mem r arrs.(ap)))
      (List.init cfg.C.n_routers Fun.id)
  in
  List.sort_uniq Int.compare (List.concat_map of_ap aps)

let targets_match cfg =
  let arrs =
    match cfg.C.scheme with
    | C.Abrr s | C.Dual { abrr = s; _ } -> s.C.arrs
    | C.Full_mesh | C.Tbrr _ | C.Confed _ | C.Rcp _ -> [||]
  in
  let per_ap =
    List.for_all
      (fun ap -> Roles.reflect_targets cfg arrs ~aps:[ ap ] = old_targets cfg arrs [ ap ])
      (List.init (Array.length arrs) Fun.id)
  in
  let per_router =
    List.for_all
      (fun i ->
        let roles = Roles.derive cfg i in
        roles.Roles.abrr_arrs == arrs
        && Roles.reflect_targets cfg roles.abrr_arrs ~aps:roles.arr_aps
           = old_targets cfg arrs roles.arr_aps)
      (List.init cfg.C.n_routers Fun.id)
  in
  per_ap && per_router

let arr_table n k =
  QCheck.Gen.(array_repeat k (list_size (int_range 1 3) (int_bound (n - 1))))

let random_abrr =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 14 >>= fun n ->
      int_range 1 4 >>= fun k ->
      int_range 1 4 >>= fun k' ->
      map
        (fun (((arrs, arrs'), cprr), dual) -> (n, arrs, arrs', cprr, dual))
        (pair (pair (pair (arr_table n k) (arr_table n k')) bool) bool))
  in
  let show a =
    String.concat "|"
      (Array.to_list
         (Array.map (fun l -> String.concat "," (List.map string_of_int l)) a))
  in
  make
    ~print:(fun (n, arrs, arrs', cprr, dual) ->
      Printf.sprintf "n=%d arrs=%s then %s cp_rrs=%b dual=%b" n (show arrs)
        (show arrs') cprr dual)
    gen

let prop_reflect_targets =
  QCheck.Test.make ~name:"reflect targets = per-router definition" ~count:200
    random_abrr (fun (n, arrs, arrs', control_plane_rrs, dual) ->
      let k = Array.length arrs in
      let spec =
        { C.partition = Part.uniform k; arrs; loop_prevention = C.Reflected_bit }
      in
      let scheme =
        if dual then
          C.Dual
            {
              tbrr =
                {
                  C.clusters = [ { C.trrs = [ 0 ]; clients = List.init (n - 1) succ } ];
                  multipath = false;
                  best_external = false;
                };
              abrr = spec;
              accept = Array.make k C.Accept_abrr;
            }
        else C.Abrr spec
      in
      let cfg = C.make ~control_plane_rrs ~n_routers:n ~igp:(flat_igp n) ~scheme () in
      targets_match cfg
      && (dual
         ||
         let net = N.create cfg in
         N.repartition net ~partition:(Part.uniform (Array.length arrs')) ~arrs:arrs';
         targets_match (N.config net)))

(* Network.create on the 42 x 24-router paper topology under ABRR with
   8 APs x 2 ARRs. Role state must not grow with routers² (a reflect
   target list per router and AP is ~200 MB here); what remains is the
   1008² IGP distance table (8 MB) and per-router tables. *)
let test_create_live_memory () =
  let module T = Topo.Isp_topo in
  let topo =
    T.generate
      (T.spec ~pops:42 ~routers_per_pop:24 ~peer_ases:15 ~peering_points_per_as:6
         ~seed:7 ())
  in
  let cfg = T.config ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo) topo in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let net = N.create cfg in
  let mb = float_of_int ((live () - before) * (Sys.word_size / 8)) /. 1048576. in
  check_int "routers" 1008 (N.router_count (Sys.opaque_identity net));
  if mb >= 32. then Alcotest.failf "Network.create left %.1f MB live (bound 32 MB)" mb

(* A second [Network.create] over the same 1008-router configuration
   takes the IGP graph's distance table instead of running 1008
   Dijkstras: it allocates less than the table's 1008² words, while the
   first create allocated more than that. *)
let test_create_reuses_igp_table () =
  let module T = Topo.Isp_topo in
  let topo =
    T.generate
      (T.spec ~pops:42 ~routers_per_pop:24 ~peer_ases:15 ~peering_points_per_as:6
         ~seed:7 ())
  in
  let cfg = T.config ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo) topo in
  let words_of_create () =
    let before = Gc.allocated_bytes () in
    let net = N.create cfg in
    let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
    check_int "routers" 1008 (N.router_count (Sys.opaque_identity net));
    words
  in
  let table = float_of_int (1008 * 1008) in
  let first = words_of_create () in
  let second = words_of_create () in
  if first < table then Alcotest.failf "first create: %.0f words, no table built" first;
  if second >= table then Alcotest.failf "second create allocated %.0f words" second

(* [load] keeps the distances [create] computed, unless the IGP graph was
   edited in between. *)
let test_load_recomputes_edited_igp () =
  let g = Igp.Graph.create ~n:3 in
  Igp.Graph.add_edge g 0 1 10;
  Igp.Graph.add_edge g 1 2 10;
  Igp.Graph.add_edge g 0 2 50;
  let cfg = C.make ~n_routers:3 ~igp:g ~scheme:C.Full_mesh () in
  let net = N.create cfg in
  inject net ~router:0 (route ~prefix 0);
  quiesce net;
  let dump = N.dump net in
  let same = N.create cfg in
  N.load same dump;
  check_int "unedited: create's distances" 20 (N.igp_distance same 0 2);
  let edited = N.create cfg in
  Igp.Graph.remove_edge g 1 2;
  N.load edited dump;
  check_int "edited after create: recomputed" 50 (N.igp_distance edited 0 2);
  check_int "rerouted around the cut link" 60 (N.igp_distance edited 1 2)

(* A directed IGP whose metrics differ each way: router 3 reaches exit 2
   at cost 1 and exit 1 at cost 50, while the reverse arcs cost the
   opposite. Every reader must use the cost from the deciding router to
   the next hop; reading the reverse direction picks exit 1, which is
   also what the router-id tie-break would pick. *)
let directed_igp () =
  let g = Igp.Graph.create ~n:4 in
  for i = 1 to 3 do
    Igp.Graph.add_edge g 0 i 100
  done;
  Igp.Graph.add_arc g 3 2 1;
  Igp.Graph.add_arc g 2 3 50;
  Igp.Graph.add_arc g 3 1 50;
  Igp.Graph.add_arc g 1 3 1;
  g

let test_igp_orientation () =
  let run scheme =
    let net = N.create (C.make ~n_routers:4 ~igp:(directed_igp ()) ~scheme ()) in
    inject net ~router:1 (route ~prefix 1);
    inject net ~router:2 (route ~prefix 2);
    quiesce net;
    net
  in
  let abrr = run (C.abrr ~partition:(Part.uniform 1) [| [ 0 ] |]) in
  check_int "distance 3 -> 2" 1 (N.igp_distance abrr 3 2);
  check_int "distance 2 -> 3" 50 (N.igp_distance abrr 2 3);
  check_int "distance 3 -> 1" 50 (N.igp_distance abrr 3 1);
  check_int "distance 1 -> 3" 1 (N.igp_distance abrr 1 3);
  check_bool "ABRR client picks its near exit" true
    (N.best_exit abrr ~router:3 prefix = Some 2);
  let rcp = run (C.rcp [ 0 ]) in
  check_bool "RCP picks from the client's vantage" true
    (N.best_exit rcp ~router:3 prefix = Some 2)

let suite =
  ( "network",
    [
      Alcotest.test_case "hooks" `Quick test_hooks_fire;
      Alcotest.test_case "total counters balance" `Quick test_total_counters;
      Alcotest.test_case "IGP failure reroutes" `Quick test_igp_failure_reroute;
      Alcotest.test_case "IGP partition drops routes" `Quick
        test_igp_partition_drops_routes;
      Alcotest.test_case "control-plane RRs" `Quick test_control_plane_rrs;
      Alcotest.test_case "absolute-time scheduling" `Quick test_at_scheduling;
      Alcotest.test_case "router bounds" `Quick test_router_bounds;
      Alcotest.test_case "invalid config rejected" `Quick
        test_invalid_config_rejected;
      Alcotest.test_case "multi-AP ARR" `Quick test_multi_ap_arr;
      Alcotest.test_case "two eBGP routes one router" `Quick
        test_two_ebgp_routes_same_router;
      Alcotest.test_case "LPM forwarding lookup" `Quick test_lpm_lookup;
      QCheck_alcotest.to_alcotest prop_reflect_targets;
      Alcotest.test_case "create: paper-scale live memory" `Quick
        test_create_live_memory;
      Alcotest.test_case "create: a second network reuses the IGP table" `Quick
        test_create_reuses_igp_table;
      Alcotest.test_case "load recomputes an edited IGP" `Quick
        test_load_recomputes_edited_igp;
      Alcotest.test_case "IGP orientation: directed metrics" `Quick
        test_igp_orientation;
    ] )
