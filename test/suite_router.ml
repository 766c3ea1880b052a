(* Router state across the schemes the CI checkpoint gate does not pin:
   snapshot bytes of quiescent networks, and the known-prefix set
   against the tables it is derived from. *)

module C = Abrr_core.Config
module N = Abrr_core.Network
module R = Abrr_core.Router
module T = Topo.Isp_topo
module RG = Topo.Route_gen
module Time = Eventsim.Time

type scheme =
  | Full_mesh
  | Tbrr
  | Tbrr_multi
  | Tbrr_best_external
  | Abrr
  | Confed
  | Rcp
  | Dual

let all_schemes =
  [ Full_mesh; Tbrr; Tbrr_multi; Tbrr_best_external; Abrr; Confed; Rcp; Dual ]

let scheme_name = function
  | Full_mesh -> "full-mesh"
  | Tbrr -> "tbrr"
  | Tbrr_multi -> "tbrr-multi"
  | Tbrr_best_external -> "tbrr-best-external"
  | Abrr -> "abrr"
  | Confed -> "confed"
  | Rcp -> "rcp"
  | Dual -> "dual"

let resolve topo = function
  | Full_mesh -> C.Full_mesh
  | Tbrr -> T.tbrr_scheme topo
  | Tbrr_multi -> T.tbrr_scheme ~multipath:true topo
  | Tbrr_best_external -> C.tbrr ~best_external:true topo.T.clusters
  | Abrr -> T.abrr_scheme ~aps:4 ~arrs_per_ap:2 topo
  | Confed -> T.confed_scheme topo
  | Rcp -> T.rcp_scheme topo
  | Dual -> (
    match (T.tbrr_scheme topo, T.abrr_scheme ~aps:4 ~arrs_per_ap:2 topo) with
    | C.Tbrr tbrr, C.Abrr abrr ->
      C.Dual
        {
          tbrr;
          abrr;
          accept = [| C.Accept_abrr; C.Accept_tbrr; C.Accept_abrr; C.Accept_tbrr |];
        }
    | _ -> assert false)

(* A small Tier-1-shaped network fed its whole table. Processing is
   jittered as in the CLI workloads: lockstep rounds can keep a
   confederation from settling. MED is always compared, so that no
   scheme oscillates (§2.3.1). *)
let build ?damping ~pops ~rpp ~prefixes ~seed scheme =
  let topo =
    T.generate
      (T.spec ~pops ~routers_per_pop:rpp ~peer_ases:6 ~peering_points_per_as:3
         ~seed ())
  in
  let table = RG.generate topo (RG.spec ~n_prefixes:prefixes ~seed ()) in
  let cfg =
    T.config ?damping ~med_mode:Bgp.Decision.Always_compare ~proc_delay:(Time.ms 150) ~proc_jitter:(Time.ms 400)
      ~scheme:(resolve topo scheme) topo
  in
  let net = N.create cfg in
  RG.inject_all table net;
  (net, table, topo)

let quiesce net = Helpers.quiesce ~check:false ~max_events:2_000_000 net

let encode_md5 net =
  match Snapshot.encode net with
  | Ok b -> Digest.to_hex (Digest.string b)
  | Error e -> Alcotest.failf "encode failed: %s" e

let some_router net p =
  let rec go i =
    if i >= N.router_count net then false else p (N.router net i) || go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Snapshot bytes pinned for quiescent networks of the schemes outside
   bench/baseline/segs.sha256. The digests were taken before the router
   was split into modules; a table dropped or reordered moves them. *)

let pinned_quiescent scheme expected () =
  let net, _, _ = build ~pops:4 ~rpp:5 ~prefixes:40 ~seed:7 scheme in
  quiesce net;
  if scheme = Rcp then
    Alcotest.(check bool) "an RCP Adj-RIB-Out is filled" true
      (some_router net (fun r -> R.is_rcp r && R.rib_out_entries r > 0));
  Alcotest.(check string) (scheme_name scheme ^ " snapshot MD5") expected
    (encode_md5 net)

(* Three flaps of a few session routes under damping, then a pause
   before the reuse timers fire: the snapshot holds suppressed routes. *)
let pinned_damped expected () =
  let net, table, _ =
    build ~damping:Bgp.Damping.default ~pops:4 ~rpp:5 ~prefixes:40 ~seed:7 Abrr
  in
  quiesce net;
  let victims =
    List.filteri (fun i _ -> i < 4) (List.concat (Array.to_list table.RG.routes))
  in
  for _ = 1 to 3 do
    List.iter
      (fun (e : RG.ebgp_route) ->
        N.withdraw net ~router:e.RG.router ~neighbor:e.RG.neighbor
          e.RG.route.Bgp.Route.prefix ~path_id:e.RG.route.Bgp.Route.path_id)
      victims;
    quiesce net;
    List.iter
      (fun (e : RG.ebgp_route) ->
        N.inject net ~router:e.RG.router ~neighbor:e.RG.neighbor e.RG.route)
      victims
  done;
  ignore (N.run ~until:(Eventsim.Sim.now (N.sim net) + Time.sec 2) net);
  Alcotest.(check bool) "suppressed routes held" true
    (some_router net (fun r ->
         List.exists
           (fun (d : Abrr_core.Damping_table.entry_state) -> d.ds_held <> None)
           (Abrr_core.Damping_table.dump (R.damping r))));
  Alcotest.(check string) "damped snapshot MD5" expected (encode_md5 net)

(* ------------------------------------------------------------------ *)
(* [known_prefixes] = the sorted, deduplicated prefixes of every table
   the snapshot writes, read through the same walks: at quiescence,
   after a peer purge, after a cold restart, and after an IGP cut that
   leaves routes whose next hop is unreachable in Adj-RIB-Ins only, with
   no Loc-RIB entry. *)

let dumped_prefixes r =
  let ps = ref [] in
  Array.iter (Bgp.Rib.iter (fun p _ -> ps := p :: !ps)) (R.ribs r);
  Array.iter
    (fun plane ->
      Abrr_core.Adj_in.iter_by_source plane ~sources:ignore
        ~source:(fun _ _ -> ())
        ~entry:(fun key _ -> ps := Netaddr.Prefix.of_key key :: !ps))
    (R.planes r);
  List.sort_uniq Netaddr.Prefix.compare !ps

let check_known net what =
  for i = 0 to N.router_count net - 1 do
    let r = N.router net i in
    if not (List.equal Netaddr.Prefix.equal (R.known_prefixes r) (dumped_prefixes r))
    then QCheck.Test.fail_reportf "router %d: known_prefixes differs %s" i what
  done

let prop_known_prefixes (si, seed, victim, peer) =
  let scheme = List.nth all_schemes (si mod List.length all_schemes) in
  let net, _, topo = build ~pops:3 ~rpp:4 ~prefixes:15 ~seed scheme in
  quiesce net;
  check_known net "at quiescence";
  let border = List.hd topo.T.peering_routers in
  List.iter
    (fun (m, _) -> Igp.Graph.remove_edge topo.T.igp border m)
    (Igp.Graph.neighbors topo.T.igp border);
  N.refresh_igp net;
  quiesce net;
  check_known net "after an IGP cut";
  let n = N.router_count net in
  let victim = victim mod n and peer = peer mod n in
  let peer = if peer = victim then (peer + 1) mod n else peer in
  R.purge_peer (N.router net victim) ~peer;
  check_known net "after purge_peer";
  quiesce net;
  check_known net "after purge_peer, quiesced";
  R.set_up_cold (N.router net victim);
  check_known net "after set_up_cold";
  quiesce net;
  check_known net "after set_up_cold, quiesced";
  true

let test_known_prefixes =
  QCheck.Test.make ~name:"known_prefixes = union of dumped tables, every scheme"
    ~count:40
    QCheck.(quad (int_bound 63) (int_range 1 1000) (int_bound 99) (int_bound 99))
    prop_known_prefixes

(* Each derivation is one [Route.update]. The reference applies the
   same changes one attribute at a time, as the router did before they
   were fused; both must give the same route over the same block. *)
let test_derive_reference () =
  let module Rt = Bgp.Route in
  let module E = Bgp.Ext_community in
  let ip = Netaddr.Ipv4.of_string in
  let self = C.loopback 0 and src = 3 in
  let arr_roles = Abrr_core.Roles.derive (Helpers.single_ap_abrr ()) 0 in
  let roles =
    [
      arr_roles;
      { arr_roles with abrr_loop = C.Cluster_list };
      { arr_roles with my_cluster_ids = [ ip "192.168.7.7"; ip "192.168.7.8" ] };
    ]
  in
  let strip r =
    Rt.update ~originator_id:None ~cluster_list:[]
      ~ext_communities:
        (List.filter (fun e -> not (E.is_reflected e)) (Rt.ext_communities r))
      r
  in
  let originator r =
    match Rt.originator_id r with Some o -> o | None -> C.loopback src
  in
  let trr (roles : Abrr_core.Roles.t) r =
    let r = Rt.update ~originator_id:(Some (originator r)) ~path_id:0 r in
    let cluster = match roles.my_cluster_ids with c :: _ -> c | [] -> self in
    Rt.update ~cluster_list:(cluster :: Rt.cluster_list r) r
  in
  let arr (roles : Abrr_core.Roles.t) r =
    let r = Rt.update ~originator_id:(Some (originator r)) r in
    match roles.abrr_loop with
    | C.Reflected_bit ->
      if Rt.is_reflected r then r
      else Rt.update ~ext_communities:(E.reflected :: Rt.ext_communities r) r
    | C.Cluster_list -> Rt.update ~cluster_list:(self :: Rt.cluster_list r) r
  in
  let base =
    Helpers.route ~med:5 ~path_id:7 ~prefix:(Helpers.pfx "20.0.0.0/16") 3
  in
  let other = E.make ~typ:0 ~subtyp:1 ~value:0 in
  let routes =
    [
      base;
      Rt.update ~originator_id:(Some (ip "10.0.0.9")) base;
      Rt.update ~ext_communities:[ other ] base;
      Rt.update
        ~originator_id:(Some (ip "10.0.0.9"))
        ~ext_communities:[ other; E.reflected ]
        ~cluster_list:[ ip "192.168.0.1" ] base;
    ]
  in
  let same what (derived : Rt.t) (reference : Rt.t) =
    Alcotest.(check bool) what true
      (Rt.equal derived reference && Rt.attrs derived == Rt.attrs reference)
  in
  List.iteri
    (fun k r ->
      let what = Printf.sprintf "route %d: %s" k in
      same (what "stripped") (Abrr_core.Derive.stripped r)
        (Rt.with_path_id 0 (strip r));
      same (what "own") (Abrr_core.Derive.own ~self r)
        (Rt.update ~next_hop:self ~path_id:0 (strip r));
      List.iter
        (fun roles ->
          same (what "trr_reflect")
            (Abrr_core.Derive.trr_reflect roles ~self ~src r)
            (trr roles r);
          same (what "arr_reflect")
            (Abrr_core.Derive.arr_reflect roles ~self ~src r)
            (arr roles r))
        roles)
    routes

(* A derivation that changes nothing is free: stripping a route that
   carries no reflection attribute and has path id 0 gives it back. *)
let test_noop_derivation () =
  let r = Helpers.route ~med:5 ~prefix:(Helpers.pfx "20.0.0.0/16") 3 in
  let r = Abrr_core.Derive.stripped r in
  ignore (Abrr_core.Derive.stripped r);
  let before = Gc.minor_words () in
  let again = Abrr_core.Derive.stripped r in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the route itself" true (again == r);
  if words > 0. then Alcotest.failf "a no-op derivation allocated %.0f words" words

let suite =
  ( "router",
    [
      Alcotest.test_case "snapshot pinned: rcp" `Quick
        (pinned_quiescent Rcp "8acbaf981254f15450c6165a638b5e57");
      Alcotest.test_case "snapshot pinned: confed" `Quick
        (pinned_quiescent Confed "c963698a5bcdfe27610e963711bcddad");
      Alcotest.test_case "snapshot pinned: tbrr-multi" `Quick
        (pinned_quiescent Tbrr_multi "3057136056529e6480d75d4c7d638154");
      Alcotest.test_case "snapshot pinned: tbrr-best-external" `Quick
        (pinned_quiescent Tbrr_best_external "73ef1fd410d2f74ff8fe6d740a21a0a8");
      Alcotest.test_case "snapshot pinned: damping" `Quick (pinned_damped "2b2ba1d19ae4d73d58427f54437671b8");
      QCheck_alcotest.to_alcotest test_known_prefixes;
      Alcotest.test_case "derivations = one attribute at a time" `Quick
        test_derive_reference;
      Alcotest.test_case "no-op derivation returns the route" `Quick
        test_noop_derivation;
    ] )
