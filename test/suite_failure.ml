(* §2.3.3 robustness: redundant ARRs mask single failures; the blast
   radius of losing a reflector pair is one AP's prefixes under ABRR but
   a whole cluster's visibility under TBRR. *)

open Helpers
module C = Abrr_core.Config
module N = Abrr_core.Network
module R = Abrr_core.Router
module Part = Abrr_core.Partition

let check_bool = Alcotest.(check bool)
let prefix = pfx "20.0.0.0/16"

let settle net =
  (* let hold timers expire and the network re-converge *)
  quiesce net

let test_redundant_arr_masks_failure () =
  let net = N.create (single_ap_abrr ~arrs:[ 0; 1 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  N.fail net ~router:0;
  settle net;
  (* existing routes survive via the redundant ARR *)
  check_bool "old route kept" true (N.best_exit net ~router:4 prefix = Some 2);
  (* a brand-new route still propagates *)
  let p2 = pfx "21.0.0.0/16" in
  inject net ~router:3 (route ~prefix:p2 3);
  settle net;
  check_bool "new route via survivor" true (N.best_exit net ~router:4 p2 = Some 3);
  check_bool "failed ARR holds nothing new" true (N.best net ~router:0 p2 = None)

let test_single_arr_failure_blackholes_new_routes () =
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  N.fail net ~router:0;
  settle net;
  (* with the only ARR gone, reflected state is purged *)
  check_bool "purged" true (N.best net ~router:4 prefix = None);
  (* the injector itself still has its eBGP route *)
  check_bool "injector keeps eBGP" true (N.best net ~router:2 prefix <> None)

let two_ap_net () =
  let part = Part.uniform 2 in
  let cfg =
    C.make ~n_routers:8 ~igp:(flat_igp 8)
      ~scheme:(C.abrr ~partition:part [| [ 0; 1 ]; [ 2; 3 ] |])
      ()
  in
  let net = N.create cfg in
  inject net ~router:4 (route ~prefix 4);
  inject net ~router:5 (route ~prefix:(pfx "200.0.0.0/16") 5);
  quiesce net;
  net

let test_abrr_blast_radius_is_one_ap () =
  let net = two_ap_net () in
  let high = pfx "200.0.0.0/16" in
  (* kill both ARRs of AP 0 *)
  N.fail net ~router:0;
  N.fail net ~router:1;
  settle net;
  check_bool "AP0 prefix lost" true (N.best net ~router:7 prefix = None);
  check_bool "AP1 prefix survives" true (N.best_exit net ~router:7 high = Some 5)

let test_tbrr_blast_radius_is_whole_cluster () =
  let clusters =
    [
      { C.trrs = [ 0; 1 ]; clients = [ 4; 5 ] };
      { C.trrs = [ 2; 3 ]; clients = [ 6; 7 ] };
    ]
  in
  let cfg = C.make ~n_routers:8 ~igp:(flat_igp 8) ~scheme:(C.tbrr clusters) () in
  let net = N.create cfg in
  let high = pfx "200.0.0.0/16" in
  inject net ~router:4 (route ~prefix 4);
  inject net ~router:6 (route ~prefix:high 6);
  quiesce net;
  check_bool "before" true (N.best_exit net ~router:5 high = Some 6);
  (* kill cluster 0's TRR pair: its clients lose all remote visibility *)
  N.fail net ~router:0;
  N.fail net ~router:1;
  settle net;
  check_bool "cluster client loses remote prefix" true
    (N.best net ~router:5 high = None);
  (* the other cluster keeps everything it originates *)
  check_bool "other cluster fine" true (N.best_exit net ~router:7 high = Some 6)

let test_recovery_resyncs () =
  let net = N.create (single_ap_abrr ~arrs:[ 0; 1 ] ()) in
  inject net ~router:2 (route ~prefix 2);
  quiesce net;
  N.fail net ~router:1;
  settle net;
  N.recover net ~router:1;
  settle net;
  (* the recovered ARR rebuilt its best-AS-level set from client replays *)
  check_bool "set rebuilt" true (R.reflector_set (N.router net 1) prefix <> []);
  check_bool "clients re-learned from it" true
    (R.received_set (N.router net 4) ~from:1 prefix <> []);
  (* and a post-recovery change flows through it *)
  inject net ~router:3 (route ~med:0 ~prefix:(pfx "22.0.0.0/16") 3);
  settle net;
  check_bool "new route" true (N.best_exit net ~router:5 (pfx "22.0.0.0/16") = Some 3)

let test_client_failure_withdraws_its_routes () =
  let net = N.create (single_ap_abrr ~arrs:[ 0 ] ()) in
  inject net ~router:2 (route ~med:1 ~prefix 2);
  inject net ~router:3 (route ~med:5 ~prefix 3);
  quiesce net;
  check_bool "best via 2" true (N.best_exit net ~router:5 prefix = Some 2);
  N.fail net ~router:2;
  settle net;
  (* the ARR purges router 2's advert; everyone falls back to router 3 *)
  check_bool "fallback" true (N.best_exit net ~router:5 prefix = Some 3)

(* MRAI flush timers cannot be cancelled once scheduled, so they can
   outlive the session (peer purged) or the router (went down) they were
   armed for. Both stale firings must be inert: no ghost session entry,
   no transmission from a down router, and a state that still
   round-trips through the snapshot codec digest-exact. *)

let mrai_abrr_config () =
  C.make ~mrai:(Eventsim.Time.sec 30) ~n_routers:6 ~igp:(flat_igp 6)
    ~scheme:(C.abrr ~partition:(Part.uniform 1) [| [ 0 ] |])
    ()

let roundtrips net cfg =
  match Snapshot.encode net with
  | Error e -> Alcotest.fail ("encode: " ^ e)
  | Ok blob -> (
    let net' = N.create cfg in
    match Snapshot.decode net' blob with
    | Error e -> Alcotest.fail ("decode: " ^ e)
    | Ok () -> (
      match (Snapshot.digest net, Snapshot.digest net') with
      | Ok a, Ok b -> check_bool "digest roundtrip" true (a = b)
      | Error e, _ | _, Error e -> Alcotest.fail ("digest: " ^ e)))

let test_peer_failure_with_flush_armed () =
  let cfg = mrai_abrr_config () in
  let net = N.create cfg in
  (* wave 1 transmits immediately and starts every session's MRAI
     window; the better route at 1 s is suppressed on the ARR's client
     sessions, arming flush timers for ~31 s *)
  inject net ~router:2 (route ~med:5 ~prefix 2);
  N.at_op net (Eventsim.Time.sec 1)
    (N.Inject { router = 3; neighbor = neighbor 3; route = route ~med:0 ~prefix 3 });
  (* the client fails at 2 s: hold timers expire at ~5 s and purge its
     sessions everywhere, long before the armed flushes fire *)
  N.at_op net (Eventsim.Time.sec 2) (N.Fail 4);
  quiesce net;
  (* the stale flush on the ARR must not have re-created a ghost entry
     for the purged session *)
  let arr = R.dump_state (N.router net 0) in
  check_bool "no ghost session for failed peer" false
    (List.exists (fun ss -> ss.Abrr_core.Outbox.ss_peer = 4) arr.R.st_sessions);
  (* the surviving clients still got the flushed better route *)
  check_bool "flush delivered to survivors" true
    (N.best_exit net ~router:5 prefix = Some 3);
  check_bool "router 4 is down" false (R.is_up (N.router net 4));
  roundtrips net cfg

let test_own_flush_after_failure_is_inert () =
  let cfg = mrai_abrr_config () in
  let net = N.create cfg in
  let p2 = pfx "21.0.0.0/16" in
  (* router 2's first advert opens its MRAI window; the second prefix at
     1 s is suppressed on its session to the ARR, arming its own flush *)
  inject net ~router:2 (route ~prefix 2);
  N.at_op net (Eventsim.Time.sec 1)
    (N.Inject { router = 2; neighbor = neighbor 2; route = route ~prefix:p2 2 });
  N.at_op net (Eventsim.Time.sec 2) (N.Fail 2);
  quiesce net;
  (* the flush fires at ~31 s on a down router: it must not transmit —
     the suppressed prefix never reaches anyone *)
  check_bool "suppressed prefix never escaped" true (N.best net ~router:5 p2 = None);
  (* and the pre-failure route was withdrawn by the failure itself *)
  check_bool "failed client's routes purged" true (N.best net ~router:5 prefix = None);
  roundtrips net cfg

let test_messages_to_down_router_dropped () =
  let net = N.create (full_mesh_config 4) in
  N.fail net ~router:3;
  inject net ~router:1 (route ~prefix 1);
  quiesce net;
  check_bool "others fine" true (N.best_exit net ~router:0 prefix = Some 1);
  check_bool "down router empty" true (N.best net ~router:3 prefix = None);
  check_bool "marked down" false (R.is_up (N.router net 3))

let suite =
  ( "failure",
    [
      Alcotest.test_case "redundant ARR masks failure" `Quick
        test_redundant_arr_masks_failure;
      Alcotest.test_case "single-ARR failure blackholes" `Quick
        test_single_arr_failure_blackholes_new_routes;
      Alcotest.test_case "ABRR blast radius = one AP" `Quick
        test_abrr_blast_radius_is_one_ap;
      Alcotest.test_case "TBRR blast radius = whole cluster" `Quick
        test_tbrr_blast_radius_is_whole_cluster;
      Alcotest.test_case "recovery resyncs" `Quick test_recovery_resyncs;
      Alcotest.test_case "client failure withdraws routes" `Quick
        test_client_failure_withdraws_its_routes;
      Alcotest.test_case "peer failure with MRAI flush armed" `Quick
        test_peer_failure_with_flush_armed;
      Alcotest.test_case "down router's own flush is inert" `Quick
        test_own_flush_after_failure_is_inert;
      Alcotest.test_case "traffic to down router dropped" `Quick
        test_messages_to_down_router_dropped;
    ] )
