(* The symbolic propagation analyzer (lib/verify/propagation) against
   the simulator: on random small networks its fixpoint must predict the
   quiescent state exactly — delivered iBGP sets, learnable classes,
   egress choices — under every scheme; and the what-if delta API must
   reach the same outcome as a from-scratch solve while doing strictly
   less work. *)

open Helpers
module N = Abrr_core.Network
module C = Abrr_core.Config
module Rt = Abrr_core.Router
module Part = Abrr_core.Partition
module Pr = Verify.Propagation
module R = Bgp.Route

let check_bool = Alcotest.(check bool)

(* --- Random scenarios ------------------------------------------------- *)

type scenario = {
  n : int;
  injections : (int * int * R.t) list;  (* router, neighbor key, route *)
}

let gen_scenario seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let n = 4 + Random.State.int rng 5 in
  let n_prefixes = 1 + Random.State.int rng 3 in
  let injections = ref [] in
  for i = 0 to n_prefixes - 1 do
    let prefix =
      Netaddr.Prefix.make
        (Netaddr.Ipv4.of_octets (20 + (i * 60) + Random.State.int rng 40) 0 0 0)
        (10 + Random.State.int rng 12)
    in
    let n_routes = 1 + Random.State.int rng 3 in
    for k = 1 to n_routes do
      let router = Random.State.int rng n in
      let asn = 7000 + Random.State.int rng 2 in
      let med =
        if Random.State.bool rng then Some (Random.State.int rng 10) else None
      in
      injections :=
        (router, router + (100 * k), route ~asn ?med ~path_id:k ~prefix (router + (100 * k)))
        :: !injections
    done
  done;
  { n; injections = !injections }

let schemes scenario seed =
  let rng = Random.State.make [| seed; 0xabba |] in
  let n = scenario.n in
  let aps = 1 + Random.State.int rng 3 in
  let arrs = Array.init aps (fun a -> [ ((a * 2) + Random.State.int rng 2) mod n ]) in
  let members c = List.filter (fun i -> i mod 2 = c) (List.init n Fun.id) in
  let cluster c =
    match members c with
    | trr :: clients -> { C.trrs = [ trr ]; clients }
    | [] -> assert false
  in
  let half = n / 2 in
  let sub_as_of = Array.init n (fun i -> if i < half then 0 else 1) in
  [
    ("mesh", C.Full_mesh);
    ("abrr", C.abrr ~partition:(Part.uniform aps) arrs);
    ("tbrr", C.tbrr [ cluster 0; cluster 1 ]);
    ("confed", C.confed ~sub_as_of ~confed_links:[ (0, half) ]);
    ("rcp", C.rcp [ Random.State.int rng n ]);
  ]

(* Attribute class of a route as the model reports it: path-id and
   reflection attributes stripped (NEXT_HOP stays — the egress
   identity). *)
let classify (r : R.t) =
  R.update ~path_id:0 ~originator_id:None ~cluster_list:[]
    ~ext_communities:
      (List.filter
         (fun e -> not (Bgp.Ext_community.is_reflected e))
         (R.ext_communities r))
    r

let sort_classes rs = List.sort_uniq R.compare (List.map classify rs)

(* --- The agreement property ------------------------------------------ *)

(* For one scenario under one scheme: solve symbolically, run the
   simulator to quiescence (full add-paths storage so Adj-RIB-Ins hold
   complete sets), and compare per router and prefix. Statically
   diverging instances (and the rare non-quiescent run) are skipped —
   the property is about quiescent states. *)
let agrees_under scenario scheme =
  let cfg =
    C.make ~store_full_sets:true ~n_routers:scenario.n
      ~igp:(flat_igp scenario.n) ~scheme ()
  in
  let workload =
    List.map (fun (r, k, rt) -> (r, neighbor k, rt)) scenario.injections
  in
  let t = Pr.solve cfg workload in
  let converged p = match Pr.verdict t p with Pr.Converged _ -> true | _ -> false in
  if not (List.for_all converged (Pr.prefixes t)) then true
  else begin
    let net = N.create cfg in
    List.iter
      (fun (router, k, r) -> N.inject net ~router ~neighbor:(neighbor k) r)
      scenario.injections;
    match N.run ~max_events:500_000 net with
    | Eventsim.Sim.Quiescent ->
      List.for_all
        (fun p ->
          List.for_all
            (fun r ->
              let roles = Abrr_core.Roles.derive cfg r in
              let delivered = Pr.delivered t p ~router:r in
              (* delivered sets: the model's (sender, route) pairs are
                 exactly the simulator's per-sender Adj-RIB-Ins *)
              let delivered_ok =
                List.for_all
                  (fun s ->
                    let model =
                      List.filter_map
                        (fun (src, rt) -> if src = s then Some rt else None)
                        delivered
                      |> List.map (fun rt -> { rt with R.path_id = 0 })
                      |> List.sort_uniq R.compare
                    in
                    let sim =
                      Rt.received_set (N.router net r) ~from:s p
                      |> List.map (fun rt -> { rt with R.path_id = 0 })
                      |> List.sort_uniq R.compare
                    in
                    model = sim)
                  (List.init scenario.n Fun.id)
              in
              (* learnable classes: for pure clients the decision
                 channels are exactly the unmanaged Adj-RIB-Ins plus the
                 router's own eBGP routes *)
              let pure_client =
                (not roles.is_trr) && roles.arr_aps = []
                && not roles.is_rcp
              in
              let learnable_ok =
                (not pure_client)
                ||
                let own =
                  List.filter_map
                    (fun (router, _, (rt : R.t)) ->
                      if router = r && Netaddr.Prefix.compare rt.R.prefix p = 0
                      then Some (R.update ~next_hop:(C.loopback r) rt)
                      else None)
                    scenario.injections
                in
                let received =
                  List.concat_map
                    (fun s -> Rt.received_set (N.router net r) ~from:s p)
                    (List.init scenario.n Fun.id)
                in
                Pr.learnable t p ~router:r = sort_classes (own @ received)
              in
              (* egress choice *)
              let sim_exit =
                match N.best_exit net ~router:r p with
                | Some e -> Some e
                | None -> if N.best net ~router:r p <> None then Some r else None
              in
              delivered_ok && learnable_ok && (Pr.exits t p).(r) = sim_exit)
            (List.init scenario.n Fun.id))
        (Pr.prefixes t)
    | _ -> true
  end

let prop_agrees_with_sim =
  QCheck.Test.make ~name:"propagation fixpoint = quiescent simulator state"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let scenario = gen_scenario seed in
      List.for_all
        (fun (name, scheme) ->
          agrees_under scenario scheme
          || QCheck.Test.fail_reportf "seed %d: disagrees under %s" seed name)
        (schemes scenario seed))

(* --- What-if deltas --------------------------------------------------- *)

let delta_config () =
  let n = 16 in
  C.make ~n_routers:n ~igp:(flat_igp n)
    ~scheme:(C.abrr ~partition:(Part.uniform 2) [| [ 0; 1 ]; [ 2 ] |])
    ()

let delta_workload () =
  [
    (3, neighbor 3, route ~prefix:(pfx "20.0.0.0/8") 3);
    (7, neighbor 7, route ~asn:7001 ~prefix:(pfx "20.0.0.0/8") 7);
    (5, neighbor 5, route ~prefix:(pfx "200.0.0.0/8") 5);
    (9, neighbor 9, route ~asn:7001 ~prefix:(pfx "200.0.0.0/8") 9);
  ]

let evals t = (Pr.stats t).Pr.node_evals

let apply base d =
  match Pr.apply_delta base d with
  | Ok t -> t
  | Error e -> Alcotest.failf "delta rejected: %s" e

let test_delta_link () =
  let cfg = delta_config () and w = delta_workload () in
  let base = Pr.solve cfg w in
  let dl = apply base (Pr.Fail_link (3, 7)) in
  let g' = flat_igp 16 in
  Igp.Graph.remove_edge g' 3 7;
  let scratch = Pr.solve { cfg with C.igp = g' } w in
  check_bool "same outcome as from-scratch" true (Pr.same_outcome dl scratch);
  check_bool "strictly less work than from-scratch" true
    (evals dl < evals scratch);
  match Pr.apply_delta base (Pr.Fail_link (0, 0)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonexistent link must be rejected"

let test_delta_router () =
  let cfg = delta_config () and w = delta_workload () in
  let base = Pr.solve cfg w in
  let dl = apply base (Pr.Fail_router 9) in
  let scratch = Pr.solve ~live:(fun i -> i <> 9) cfg w in
  check_bool "same outcome as from-scratch" true (Pr.same_outcome dl scratch);
  check_bool "strictly less work than from-scratch" true
    (evals dl < evals scratch);
  (* r9's injection is gone with it: nobody exits through the dead
     border any more *)
  Array.iteri
    (fun i e -> if i <> 9 then check_bool "exit moved off r9" true (e <> Some 9))
    (Pr.exits dl (pfx "200.0.0.0/8"));
  match Pr.apply_delta dl (Pr.Fail_router 9) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double failure must be rejected"

let test_delta_arr () =
  let cfg = delta_config () and w = delta_workload () in
  let base = Pr.solve cfg w in
  let dl = apply base (Pr.Fail_arr 0) in
  let scratch =
    Pr.solve
      { cfg with C.scheme = C.abrr ~partition:(Part.uniform 2) [| [ 1 ]; [ 2 ] |] }
      w
  in
  check_bool "same outcome as from-scratch" true (Pr.same_outcome dl scratch);
  check_bool "AP 1 prefixes reused untouched" true
    ((Pr.stats dl).Pr.prefixes_reused >= 1);
  (* ARR redundancy means the routing outcome itself is unchanged *)
  check_bool "redundant ARR loss is outcome-neutral" true
    (Pr.same_outcome base dl);
  match Pr.apply_delta base (Pr.Fail_arr 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "losing AP 1's only ARR must be rejected"

let test_delta_repartition () =
  let cfg = delta_config () and w = delta_workload () in
  let base = Pr.solve cfg w in
  (match Pr.apply_delta base (Pr.Repartition (Part.uniform 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "AP-count mismatch must be rejected");
  let t = apply base (Pr.Repartition (Part.uniform 2)) in
  check_bool "identical boundaries: every prefix reused" true
    ((Pr.stats t).Pr.prefixes_reused = List.length (Pr.prefixes t));
  check_bool "identical boundaries: same outcome" true (Pr.same_outcome base t)

let suite =
  ( "propagation",
    [
      QCheck_alcotest.to_alcotest prop_agrees_with_sim;
      Alcotest.test_case "delta: link failure" `Quick test_delta_link;
      Alcotest.test_case "delta: router failure" `Quick test_delta_router;
      Alcotest.test_case "delta: ARR failure" `Quick test_delta_arr;
      Alcotest.test_case "delta: repartition" `Quick test_delta_repartition;
    ] )
