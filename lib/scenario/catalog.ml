open Abrr_core
open Eventsim
module IT = Topo.Isp_topo
module RG = Topo.Route_gen
module TG = Topo.Trace_gen
module R = Bgp.Route

type spec = {
  pops : int;
  routers_per_pop : int;
  peer_ases : int;
  peering_points_per_as : int;
  prefixes : int;
  aps : int;
  arrs_per_ap : int;
  mrai : Time.t;
  seed : int;
}

let spec ?(pops = 8) ?(routers_per_pop = 6) ?(peer_ases = 15)
    ?(peering_points_per_as = 6) ?(prefixes = 120) ?(aps = 8)
    ?(arrs_per_ap = 2) ?(mrai = Time.zero) ?(seed = 7) () =
  if prefixes < 4 then invalid_arg "Catalog.spec: need at least 4 prefixes";
  if aps < 2 then invalid_arg "Catalog.spec: need at least 2 APs";
  {
    pops;
    routers_per_pop;
    peer_ases;
    peering_points_per_as;
    prefixes;
    aps;
    arrs_per_ap;
    mrai;
    seed;
  }

type env = { spec : spec; topo : IT.t; table : RG.t }

let env spec =
  let topo =
    IT.generate
      (IT.spec ~pops:spec.pops ~routers_per_pop:spec.routers_per_pop
         ~peer_ases:spec.peer_ases
         ~peering_points_per_as:spec.peering_points_per_as ~seed:spec.seed ())
  in
  let table =
    RG.generate topo (RG.spec ~n_prefixes:spec.prefixes ~seed:(spec.seed + 1) ())
  in
  { spec; topo; table }

(* Forged routes need add-paths ids disjoint from the generator's
   (globally unique, counted from 1). *)
let hijack_path_id = 9_000_000
let leak_path_id = 9_500_000

let scheme_of env = function
  | "mesh" -> Config.Full_mesh
  | "tbrr" -> IT.tbrr_scheme env.topo
  | "abrr" ->
    IT.abrr_scheme ~aps:env.spec.aps ~arrs_per_ap:env.spec.arrs_per_ap env.topo
  | "confed" -> IT.confed_scheme env.topo
  | "rcp" -> IT.rcp_scheme env.topo
  | s -> invalid_arg ("Catalog: unknown scheme label " ^ s)

(* Fresh network under [scheme_label], baseline table injected, quiesced. *)
(* Per-router processing phases: synchronized rounds can livelock the
   TBRR family on ties (see bin/abrr_sim.ml); real routers are never in
   lockstep. *)
let proc_delay = Time.ms 150
let proc_jitter = Time.ms 400

let baseline ?damping env scheme_label =
  let scheme = scheme_of env scheme_label in
  let cfg =
    IT.config ?damping ~med_mode:Bgp.Decision.Always_compare
      ~mrai:env.spec.mrai ~proc_delay ~proc_jitter ~scheme env.topo
  in
  let net = Network.create ~seed:env.spec.seed cfg in
  RG.inject_all env.table net;
  let run = Engine.start net in
  Engine.quiesce run;
  run

let now_of net = Sim.now (Network.sim net)

(* Per-prefix legitimate origin ASes, from the generated table. *)
let legit_origins table =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun i entries ->
      let key = Netaddr.Prefix.to_key table.RG.prefixes.(i) in
      let origins =
        List.filter_map
          (fun (e : RG.ebgp_route) -> Bgp.As_path.origin_as (R.as_path e.route))
          entries
        |> List.sort_uniq Bgp.Asn.compare
      in
      Hashtbl.replace tbl key origins)
    table.RG.routes;
  fun p ->
    Option.value (Hashtbl.find_opt tbl (Netaddr.Prefix.to_key p)) ~default:[]

let victim_index env =
  let n = Array.length env.table.RG.prefixes in
  let good i =
    env.table.RG.from_peers.(i) && List.length env.table.RG.routes.(i) >= 2
  in
  let rec go i = if i >= n then 0 else if good i then i else go (i + 1) in
  go 0

(* A single-homed prefix: suppressing its one route blanks it network-wide,
   which is what makes damping observable. *)
let single_route_index env =
  let n = Array.length env.table.RG.prefixes in
  let rec go i =
    if i >= n then 0
    else if List.length env.table.RG.routes.(i) = 1 then i
    else go (i + 1)
  in
  go 0

let busiest_peering_router env =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun entries ->
      List.iter
        (fun (e : RG.ebgp_route) ->
          Hashtbl.replace counts e.router
            (1 + Option.value (Hashtbl.find_opt counts e.router) ~default:0))
        entries)
    env.table.RG.routes;
  Hashtbl.fold (fun r n (br, bn) -> if n > bn then (r, n) else (br, bn)) counts
    (0, 0)
  |> fst

let all_peer_asns env = List.init env.spec.peer_ases IT.peer_asn

(* ------------------------------------------------------------------ *)
(* 1. Prefix hijack: a peer AS originates someone else's prefix with a
   maximally attractive (length-1) AS path from every one of its
   peering points. The MOAS detector must see it while it holds and see
   nothing once the rogue announcement is withdrawn. *)

let hijack env scheme_label =
  let run = baseline env scheme_label in
  let net = Engine.net run in
  let vi = victim_index env in
  let victim = env.table.RG.prefixes.(vi) in
  let attacker = IT.peer_asn 0 in
  let sessions = IT.sessions_of_as env.topo attacker in
  List.iteri
    (fun j (s : IT.session) ->
      let route =
        R.make ~path_id:(hijack_path_id + j)
          ~as_path:(Bgp.As_path.of_asns [ s.peer_as ])
          ~prefix:victim ~next_hop:s.neighbor ()
      in
      let c = Network.counters net s.router in
      c.Counters.hijacks_injected <- c.Counters.hijacks_injected + 1;
      Network.inject net ~router:s.router ~neighbor:s.neighbor route)
    sessions;
  Engine.quiesce run;
  let legit = legit_origins env.table in
  let d = Verify.Anomaly.detections (Verify.Anomaly.hijacks ~legit net) in
  Engine.set_detections run d;
  Engine.check run "hijack detected" (d > 0)
    "MOAS detector flagged %d finding%s for %s (attacker AS %d, %d peering \
     points)"
    d
    (if d = 1 then "" else "s")
    (Format.asprintf "%a" Netaddr.Prefix.pp victim)
    (Bgp.Asn.to_int attacker) (List.length sessions);
  List.iteri
    (fun j (s : IT.session) ->
      Network.withdraw net ~router:s.router ~neighbor:s.neighbor victim
        ~path_id:(hijack_path_id + j))
    sessions;
  Engine.quiesce run;
  let d2 = Verify.Anomaly.detections (Verify.Anomaly.hijacks ~legit net) in
  Engine.check run "clean after withdrawal" (d2 = 0)
    "%d residual MOAS findings" d2;
  Engine.check run "victim reachability restored"
    (Engine.coverage_holes run [| victim |] = 0)
    "every up router resolves the victim prefix again";
  Engine.finish run ~name:"hijack" ~scheme:scheme_label

(* ------------------------------------------------------------------ *)
(* 2. Route leak: the victim's legitimate routes go away (origin-side
   outage) and another peer AS re-exports a path it learned from a
   fellow peer — our AS picks the leaked path up as transit. *)

let leak env scheme_label =
  let run = baseline env scheme_label in
  let net = Engine.net run in
  let vi = victim_index env in
  let victim = env.table.RG.prefixes.(vi) in
  let entries = env.table.RG.routes.(vi) in
  let carried =
    List.filter_map (fun (e : RG.ebgp_route) -> R.neighbor_as e.route) entries
    |> List.sort_uniq Bgp.Asn.compare
  in
  let peers = all_peer_asns env in
  let leaker =
    match List.find_opt (fun a -> not (List.mem a carried)) peers with
    | Some a -> a
    | None -> List.hd peers
  in
  let template = (List.hd entries : RG.ebgp_route).route in
  let leaked_path = Bgp.As_path.prepend leaker (R.as_path template) in
  (* Origin-side outage: every legitimate route withdrawn. *)
  List.iter
    (fun (e : RG.ebgp_route) ->
      Network.withdraw net ~router:e.router ~neighbor:e.neighbor victim
        ~path_id:e.route.R.path_id)
    entries;
  Engine.quiesce run;
  let sessions = IT.sessions_of_as env.topo leaker in
  List.iteri
    (fun j (s : IT.session) ->
      let route =
        R.make ~path_id:(leak_path_id + j) ~as_path:leaked_path ~prefix:victim
          ~next_hop:s.neighbor ()
      in
      Network.inject net ~router:s.router ~neighbor:s.neighbor route)
    sessions;
  Engine.quiesce run;
  let d = Verify.Anomaly.detections (Verify.Anomaly.leaks ~peers net) in
  Engine.set_detections run d;
  Engine.check run "leak detected" (d > 0)
    "valley-free detector flagged %d finding%s (leaker AS %d)" d
    (if d = 1 then "" else "s")
    (Bgp.Asn.to_int leaker);
  Engine.check run "leaked path carries the traffic"
    (Engine.coverage_holes run [| victim |] = 0)
    "victim prefix reachable through the leak on every up router";
  (* Remediation: leak withdrawn, legitimate routes restored. *)
  List.iteri
    (fun j (s : IT.session) ->
      Network.withdraw net ~router:s.router ~neighbor:s.neighbor victim
        ~path_id:(leak_path_id + j))
    sessions;
  List.iter
    (fun (e : RG.ebgp_route) ->
      Network.inject net ~router:e.router ~neighbor:e.neighbor e.route)
    entries;
  Engine.quiesce run;
  let d2 = Verify.Anomaly.detections (Verify.Anomaly.leaks ~peers net) in
  Engine.check run "clean after remediation"
    (d2 = 0 && Engine.coverage_holes run [| victim |] = 0)
    "%d residual leak findings, victim reachable on legitimate paths" d2;
  Engine.finish run ~name:"leak" ~scheme:scheme_label

(* ------------------------------------------------------------------ *)
(* 3. Persistent flapping vs. RFC 2439 damping: three withdraw/announce
   cycles on a single-homed prefix push the session's penalty past the
   suppress threshold; the final announce is absorbed at the border
   (blanking the prefix network-wide) until the penalty decays below
   the reuse threshold, when the held route is reinstated. *)

let flap_damping env scheme_label =
  let run = baseline ~damping:Bgp.Damping.default env scheme_label in
  let net = Engine.net run in
  let si = single_route_index env in
  let victim = env.table.RG.prefixes.(si) in
  let e = (List.hd env.table.RG.routes.(si) : RG.ebgp_route) in
  for k = 1 to 3 do
    Network.withdraw net ~router:e.router ~neighbor:e.neighbor victim
      ~path_id:e.route.R.path_id;
    Engine.quiesce run;
    Network.inject net ~router:e.router ~neighbor:e.neighbor e.route;
    if k < 3 then Engine.quiesce run
    else
      (* Let the announce be absorbed without firing the reuse timer
         parked ~2 half-lives out. *)
      Engine.quiesce ~until:(now_of net + Time.sec 2) run
  done;
  let tot = Network.total_counters net in
  Engine.check run "flaps suppressed" (tot.Counters.routes_damped >= 1)
    "routes_damped=%d after 3 withdraw/announce cycles"
    tot.Counters.routes_damped;
  Engine.check run "suppressed route withheld"
    (Engine.coverage_holes run [| victim |] > 0)
    "single-homed prefix unresolved while its only route is damped";
  let suppressed_at = now_of net in
  Engine.quiesce run;
  Engine.check run "reinstated after reuse delay"
    (Engine.coverage_holes run [| victim |] = 0)
    "held route re-announced once the penalty decayed (%.0f s later)"
    (Time.to_sec (now_of net - suppressed_at));
  Engine.check run "reuse waited for decay"
    (now_of net - suppressed_at >= Time.minutes 10)
    "reuse fired %.0f s after suppression (default half-life 900 s)"
    (Time.to_sec (now_of net - suppressed_at));
  Engine.finish run ~name:"flap-damping" ~scheme:scheme_label

(* ------------------------------------------------------------------ *)
(* 4. Session reset under load: a two-minute churn trace runs while the
   busiest peering router is crashed and cold-restarted mid-trace; its
   eBGP feeds are re-injected after re-establishment (as real sessions
   would re-learn them) and the network must fully reconverge. *)

let session_reset env scheme_label =
  let run = baseline env scheme_label in
  let net = Engine.net run in
  let start = now_of net + Time.sec 1 in
  let tspec =
    TG.spec ~duration:(Time.minutes 2)
      ~events:(max 50 (env.spec.prefixes / 2))
      ~seed:(env.spec.seed + 101) ()
  in
  let events =
    TG.generate env.table tspec
    |> List.map (fun (ev : TG.event) -> { ev with TG.time = ev.TG.time + start })
  in
  TG.schedule net events;
  let target = busiest_peering_router env in
  Network.at_op net (start + Time.sec 30) (Network.Fail target);
  Network.at_op net (start + Time.sec 60) (Network.Recover target);
  let refeed = ref 0 in
  Array.iter
    (fun entries ->
      List.iter
        (fun (e : RG.ebgp_route) ->
          if e.router = target then begin
            incr refeed;
            Network.at_op net
              (start + Time.sec 70)
              (Network.Inject
                 { router = e.router; neighbor = e.neighbor; route = e.route })
          end)
        entries)
    env.table.RG.routes;
  Engine.quiesce run;
  let ann, wd = TG.action_count events in
  Engine.check run "full reconvergence"
    (Engine.coverage_holes run env.table.RG.prefixes = 0)
    "every up router resolves every prefix after %d announces / %d \
     withdrawals and a reset of router %d (%d feeds replayed)"
    ann wd target !refeed;
  Engine.check run "reset router rejoined"
    (Router.is_up (Network.router net target)
    && Router.ebgp_entries (Network.router net target) > 0)
    "router %d is up with %d eBGP entries re-learned" target
    (Router.ebgp_entries (Network.router net target));
  Engine.finish run ~name:"session-reset" ~scheme:scheme_label

(* ------------------------------------------------------------------ *)
(* 5. ARR failure with AP takeover: because clients advertise To_arr to
   every ARR of each covering AP (§2.3.3 — placement is free, state is
   replicated), crashing one ARR must leave its APs fully served by the
   survivors after the hold-timer purge. *)

let arr_failover env =
  let run = baseline env "abrr" in
  let net = Engine.net run in
  let s =
    match (Network.config net).Config.scheme with
    | Config.Abrr s -> s
    | _ -> assert false
  in
  if env.spec.arrs_per_ap < 2 then begin
    Engine.check run "redundant ARRs configured" false
      "arrs_per_ap=%d; the failover drill needs at least 2"
      env.spec.arrs_per_ap;
    Engine.finish run ~name:"arr-failover" ~scheme:"abrr"
  end
  else begin
    let victim_arr = List.hd s.Config.arrs.(0) in
    Array.iteri
      (fun _ap arrs ->
        if List.mem victim_arr arrs then
          match List.filter (fun r -> r <> victim_arr) arrs with
          | survivor :: _ ->
            let c = Network.counters net survivor in
            c.Counters.takeovers <- c.Counters.takeovers + 1
          | [] -> ())
      s.Config.arrs;
    (* ARRs are access routers and may themselves home customer eBGP
       sessions: a prefix fed only through the victim becomes genuinely
       unreachable when it dies (the border router is gone, not the
       reflection plane). The takeover check covers the rest. *)
    let fed_elsewhere =
      Array.of_list
        (List.filteri
           (fun i _ ->
             List.exists
               (fun (e : RG.ebgp_route) -> e.router <> victim_arr)
               env.table.RG.routes.(i))
           (Array.to_list env.table.RG.prefixes))
    in
    let orphaned = Array.length env.table.RG.prefixes - Array.length fed_elsewhere in
    Network.fail net ~router:victim_arr;
    Engine.quiesce run;
    let holes = Engine.coverage_holes run fed_elsewhere in
    let tot = Network.total_counters net in
    Engine.check run "survivors serve all APs" (holes = 0)
      "ARR %d down, %d AP takeover%s, %d unresolved (router,prefix) pairs \
       over %d prefixes (%d homed only at the dead router, excluded)"
      victim_arr tot.Counters.takeovers
      (if tot.Counters.takeovers = 1 then "" else "s")
      holes (Array.length fed_elsewhere) orphaned;
    Network.recover net ~router:victim_arr;
    (* The victim's own eBGP sessions re-learn their customer routes
       once they re-establish. *)
    List.iter
      (fun entries ->
        List.iter
          (fun (e : RG.ebgp_route) ->
            if e.router = victim_arr then
              Network.at_op net
                (now_of net + Time.sec 5)
                (Network.Inject
                   { router = e.router; neighbor = e.neighbor; route = e.route }))
          entries)
      (Array.to_list env.table.RG.routes);
    Engine.quiesce run;
    let p0 =
      let part = s.Config.partition in
      let arr = env.table.RG.prefixes in
      let rec go i =
        if i >= Array.length arr then arr.(0)
        else if Partition.prefix_in_ap part 0 arr.(i) then arr.(i)
        else go (i + 1)
      in
      go 0
    in
    Engine.check run "recovered ARR reflects again"
      (Engine.coverage_holes run env.table.RG.prefixes = 0
      && Router.reflector_set (Network.router net victim_arr) p0 <> [])
      "router %d rebuilt its reflector set from client replays" victim_arr;
    Engine.finish run ~name:"arr-failover" ~scheme:"abrr"
  end

(* ------------------------------------------------------------------ *)
(* 6. Live repartitioning: move one AP boundary on the running network.
   Consistent-hashing property — only prefixes inside the boundary's
   old→new delta range change ownership, so retirements are bounded by
   (prefixes in delta) x arrs_per_ap, and no router's best exit moves. *)

let repartition env =
  let run = baseline env "abrr" in
  let net = Engine.net run in
  let s =
    match (Network.config net).Config.scheme with
    | Config.Abrr s -> s
    | _ -> assert false
  in
  let old_part = s.Config.partition in
  let bounds = Partition.bounds old_part in
  let b1 = Netaddr.Ipv4.to_int bounds.(1) in
  let b2 =
    if Array.length bounds > 2 then Netaddr.Ipv4.to_int bounds.(2)
    else 0x1_0000_0000
  in
  let addr = Netaddr.Ipv4.of_int (b1 + ((b2 - b1) / 2)) in
  let new_part = Partition.move_boundary old_part ~index:1 ~addr in
  let lo, hi =
    match Partition.delta_range ~old:old_part ~now:new_part with
    | Some (lo, hi) -> (Netaddr.Ipv4.to_int lo, Netaddr.Ipv4.to_int hi)
    | None -> assert false
  in
  let touched, fully_moved =
    Array.fold_left
      (fun (t, f) p ->
        let first = Netaddr.Ipv4.to_int (Netaddr.Prefix.first p) in
        let last = Netaddr.Ipv4.to_int (Netaddr.Prefix.last p) in
        if last >= lo && first <= hi then
          (t + 1, if first >= lo && last <= hi then f + 1 else f)
        else (t, f))
      (0, 0) env.table.RG.prefixes
  in
  let before = Counters.copy (Network.total_counters net) in
  let n = Network.router_count net in
  let exits_before =
    Array.init n (fun i ->
        Array.map (Network.best_exit net ~router:i) env.table.RG.prefixes)
  in
  Network.repartition net ~partition:new_part ~arrs:s.Config.arrs;
  Engine.quiesce run;
  let moved =
    (Network.total_counters net).Counters.prefixes_moved_on_repartition
    - before.Counters.prefixes_moved_on_repartition
  in
  let bound = touched * env.spec.arrs_per_ap in
  Engine.check run "movement within consistent-hashing bound"
    (moved <= bound && (fully_moved = 0 || moved > 0))
    "%d ARR-prefix retirements for %d prefixes touching the delta range \
     (%d fully inside); bound %d"
    moved touched fully_moved bound;
  let exits_same = ref true in
  for i = 0 to n - 1 do
    Array.iteri
      (fun j p ->
        ignore p;
        if Network.best_exit net ~router:i env.table.RG.prefixes.(j)
           <> exits_before.(i).(j)
        then exits_same := false)
      env.table.RG.prefixes
  done;
  Engine.check run "best exits unchanged" !exits_same
    "repartitioning moved reflection responsibility, not routing";
  Engine.check run "full coverage after repartition"
    (Engine.coverage_holes run env.table.RG.prefixes = 0)
    "every up router resolves every prefix under the new partition";
  Engine.finish run ~name:"repartition" ~scheme:"abrr"

(* ------------------------------------------------------------------ *)
(* 7. §2.4 TBRR→ABRR migration: both schemes run side by side (Dual);
   the acceptance switch flips one AP at a time, and after every stage
   each router must still resolve every prefix — the zero-downtime
   criterion. *)

let migration env =
  let tbrr =
    match IT.tbrr_scheme env.topo with Config.Tbrr s -> s | _ -> assert false
  in
  let abrr =
    match
      IT.abrr_scheme ~aps:env.spec.aps ~arrs_per_ap:env.spec.arrs_per_ap
        env.topo
    with
    | Config.Abrr s -> s
    | _ -> assert false
  in
  let scheme =
    Config.Dual
      { tbrr; abrr; accept = Array.make env.spec.aps Config.Accept_tbrr }
  in
  let cfg =
    IT.config ~med_mode:Bgp.Decision.Always_compare ~mrai:env.spec.mrai
      ~proc_delay ~proc_jitter ~scheme env.topo
  in
  let net = Network.create ~seed:env.spec.seed cfg in
  RG.inject_all env.table net;
  let run = Engine.start net in
  Engine.quiesce run;
  Engine.check run "TBRR baseline converged"
    (Engine.coverage_holes run env.table.RG.prefixes = 0)
    "full coverage with every AP accepting TBRR routes";
  let stages_ok = ref true in
  let first_bad = ref "" in
  for ap = 0 to env.spec.aps - 1 do
    Network.set_acceptance net ~ap Config.Accept_abrr;
    Engine.quiesce run;
    let holes = Engine.coverage_holes run env.table.RG.prefixes in
    if holes > 0 && !stages_ok then begin
      stages_ok := false;
      first_bad := Printf.sprintf "AP %d cutover left %d holes" ap holes
    end
  done;
  Engine.check run "staged cutover hitless" !stages_ok "%s"
    (if !stages_ok then
       Printf.sprintf "%d per-AP cutovers, full coverage after each stage"
         env.spec.aps
     else !first_bad);
  let all_abrr = ref true in
  for ap = 0 to env.spec.aps - 1 do
    if Network.acceptance net ap <> Config.Accept_abrr then all_abrr := false
  done;
  Engine.check run "fully migrated" !all_abrr
    "every AP now accepts ABRR routes";
  Engine.finish run ~name:"migration" ~scheme:"dual"

(* ------------------------------------------------------------------ *)

let names =
  [
    "hijack";
    "leak";
    "flap-damping";
    "session-reset";
    "arr-failover";
    "repartition";
    "migration";
  ]

let run env ~scheme name =
  match name with
  | "hijack" -> hijack env scheme
  | "leak" -> leak env scheme
  | "flap-damping" -> flap_damping env scheme
  | "session-reset" -> session_reset env scheme
  | "arr-failover" -> arr_failover env
  | "repartition" -> repartition env
  | "migration" -> migration env
  | s -> invalid_arg ("Catalog.run: unknown scenario " ^ s)

let run_all ?only env ~scheme =
  let selected =
    match only with
    | None -> names
    | Some l ->
      List.iter
        (fun n ->
          if not (List.mem n names) then
            invalid_arg ("Catalog.run_all: unknown scenario " ^ n))
        l;
      List.filter (fun n -> List.mem n l) names
  in
  List.map (run env ~scheme) selected
