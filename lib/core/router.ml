open Netaddr
open Eventsim
module D = Bgp.Decision
module R = Bgp.Route
module Rib = Bgp.Rib
module As_path = Bgp.As_path
module Damping = Bgp.Damping

type env = {
  id : int;
  config : Config.t;
  now : unit -> Time.t;
  schedule_process : Time.t -> unit;
  schedule_flush : peer:int -> Time.t -> unit;
  transmit : dst:int -> bytes:int -> msgs:int -> Proto.item list -> unit;
  igp_cost : Ipv4.t -> int;
  igp_cost_from : src:int -> Ipv4.t -> int;
  on_best_change : Prefix.t -> R.t option -> unit;
}

type input =
  | In_items of { src : int; items : Proto.item list }
  | In_ebgp of { neighbor : Ipv4.t; route : R.t }
  | In_ebgp_withdraw of { neighbor : Ipv4.t; prefix : Prefix.t; path_id : int }
  | In_local of R.t
  | In_local_withdraw of { prefix : Prefix.t; path_id : int }
  | In_redecide_all

type session = {
  mutable mrai_until : Time.t;
  pending : (int * int, Proto.item) Hashtbl.t;  (* (channel tag, prefix key) *)
  mutable flush_scheduled : bool;
}

type roles = {
  is_trr : bool;
  is_client : bool;
  my_cluster_ids : Ipv4.t list;
  my_trrs : int list;
  my_trr_clients : int list;
  trr_mesh : int list;
  tbrr_multipath : bool;
  tbrr_best_external : bool;
  arr_aps : int list;
  abrr_arrs : int list array;  (* the configuration's ARR table, shared *)
  partition : Partition.t option;
  abrr_loop : Config.loop_prevention;
  mesh_peers : int list;
  confed_links : int list;  (* confed-eBGP neighbours (RFC 5065) *)
  my_member_asn : Bgp.Asn.t option;
  is_rcp : bool;
  rcps : int list;  (* the control-plane nodes every client reports to *)
  rcp_clients : int list;
}

(* Which table a decision candidate came from. *)
type src_tag =
  | S_ebgp
  | S_local
  | S_mesh
  | S_confed
  | S_from_rcp
  | S_managed_trr
  | S_managed_rcp
  | S_from_trr
  | S_from_arr
  | S_own_arr

(* Per-source route tables carry a memoized ascending-source view:
   candidate collection folds over every plane's table once per decision,
   and rebuilding the sorted association list on each call dominated
   profile runs. The set of sources only changes on [table_rib]
   insertion, peer purge, and table reset — each drops the cache. *)
type srctbl = {
  ribs : (int, Rib.t) Hashtbl.t;
  mutable view : (int * Rib.t) list option;
}

(* Route-flap damping state per (prefix key, path id) — i.e. per eBGP
   session route, matching the [ebgp_neighbors] keying. Only populated
   when [config.damping] is [Some _]. A suppressed route is pulled out
   of [ebgp_rib] and parked in [dp_held] until decay brings the penalty
   under the reuse threshold. *)
type damp_entry = {
  mutable dp_penalty : float;
  mutable dp_stamp : Time.t;  (* time the penalty was last brought current *)
  mutable dp_held : R.t option;  (* the suppressed route awaiting reuse *)
  mutable dp_neighbor : Ipv4.t;
  mutable dp_wake : Time.t;  (* latest reuse wake-up already scheduled *)
}

type t = {
  env : env;
  self : Ipv4.t;
  mutable roles : roles;
  ebgp_rib : Rib.t;
  ebgp_neighbors : (int * int, Ipv4.t) Hashtbl.t;
  local_rib : Rib.t;
  managed_trr : srctbl;
  managed_arr : srctbl;
  mesh_in : srctbl;
  confed_in : srctbl;
  managed_rcp : srctbl;  (* RCP node: routes per client *)
  from_rcp : srctbl;
  rcp_out : srctbl;  (* RCP node: per-client Adj-RIB-Out *)
  from_trr : srctbl;
  from_arr : srctbl;
  loc_rib : Rib.t;
  adv_mesh : Rib.t;
  adv_confed : Rib.t;
  adv_rcp : Rib.t;
  adv_trr : Rib.t;
  adv_arr : Rib.t;
  out_mesh : Rib.t;
  out_clients : Rib.t;
  out_arr : Rib.t;
  ids_mesh : Path_id.t;
  ids_clients : Path_id.t;
  ids_arr : Path_id.t;
  ids_adv_trr : Path_id.t;
  ids_adv_arr : Path_id.t;
  inbox : input Queue.t;
  mutable process_scheduled : bool;
  outgoing : (int, Proto.item list ref) Hashtbl.t;
  sessions : (int, session) Hashtbl.t;
  damping : (int * int, damp_entry) Hashtbl.t;
  counters : Counters.t;
  mutable rejected_loops : int;
  mutable up : bool;
}

(* ------------------------------------------------------------------ *)
(* Role derivation                                                     *)

let no_roles =
  {
    is_trr = false;
    is_client = true;
    my_cluster_ids = [];
    my_trrs = [];
    my_trr_clients = [];
    trr_mesh = [];
    tbrr_multipath = false;
    tbrr_best_external = false;
    arr_aps = [];
    abrr_arrs = [||];
    partition = None;
    abrr_loop = Config.Reflected_bit;
    mesh_peers = [];
    confed_links = [];
    my_member_asn = None;
    is_rcp = false;
    rcps = [];
    rcp_clients = [];
  }

let dedup_ints l = List.sort_uniq Int.compare l

let tbrr_roles (config : Config.t) id (s : Config.tbrr_spec) roles =
  let my_clusters =
    List.mapi (fun i c -> (i, c)) s.clusters
    |> List.filter (fun (_, (c : Config.cluster)) -> List.mem id c.trrs)
  in
  let is_trr = my_clusters <> [] in
  let my_cluster_ids = List.map (fun (i, _) -> Config.cluster_id i) my_clusters in
  let my_trrs =
    dedup_ints
      (List.concat_map
         (fun (c : Config.cluster) -> if List.mem id c.clients then c.trrs else [])
         s.clusters)
  in
  let my_trr_clients =
    dedup_ints (List.concat_map (fun (_, (c : Config.cluster)) -> c.clients) my_clusters)
  in
  let all_trrs =
    dedup_ints (List.concat_map (fun (c : Config.cluster) -> c.trrs) s.clusters)
  in
  let trr_mesh = List.filter (fun x -> x <> id) all_trrs in
  let is_client = roles.is_client && not (config.control_plane_rrs && is_trr) in
  {
    roles with
    is_trr;
    is_client;
    my_cluster_ids;
    my_trrs;
    my_trr_clients;
    trr_mesh = (if is_trr then trr_mesh else []);
    tbrr_multipath = s.multipath;
    tbrr_best_external = s.best_external;
  }

(* Reflect targets (§2.1). An ARR of AP [ap] reflects to every client
   router that is not itself an ARR of [ap]; under [control_plane_rrs]
   no ARR is a client. The answer depends only on the configuration and
   its ARR table, so it is read off that shared table on demand: a list
   stored per router and AP would cost O(routers² × APs). *)

let rec mem_int (r : int) = function [] -> false | x :: l -> x = r || mem_int r l

let rec serves_any (arrs : int list array) r i =
  i < Array.length arrs && (mem_int r arrs.(i) || serves_any arrs r (i + 1))

let is_client_router (config : Config.t) arrs r =
  not (config.control_plane_rrs && serves_any arrs r 0)

let reflects_to config arrs ~ap r =
  (not (mem_int r arrs.(ap))) && is_client_router config arrs r

let rec reflects_any config arrs aps r =
  match aps with
  | [] -> false
  | ap :: aps -> reflects_to config arrs ~ap r || reflects_any config arrs aps r

let iter_reflect_targets (config : Config.t) arrs ~aps f =
  for r = 0 to config.n_routers - 1 do
    if reflects_any config arrs aps r then f r
  done

let reflect_targets config arrs ~aps =
  let acc = ref [] in
  iter_reflect_targets config arrs ~aps (fun r -> acc := r :: !acc);
  List.rev !acc

let abrr_roles (config : Config.t) id (s : Config.abrr_spec) roles =
  let k = Partition.count s.partition in
  let arr_aps =
    List.filter (fun ap -> List.mem id s.arrs.(ap)) (List.init k Fun.id)
  in
  let is_client = roles.is_client && is_client_router config s.arrs id in
  {
    roles with
    is_client;
    arr_aps;
    abrr_arrs = s.arrs;
    partition = Some s.partition;
    abrr_loop = s.loop_prevention;
  }

let derive_roles (config : Config.t) id =
  match config.scheme with
  | Config.Full_mesh ->
    let mesh_peers =
      List.filter (fun x -> x <> id) (List.init config.n_routers Fun.id)
    in
    { no_roles with mesh_peers }
  | Config.Tbrr s -> tbrr_roles config id s no_roles
  | Config.Abrr s -> abrr_roles config id s no_roles
  | Config.Confed s ->
    let my_sub = s.Config.sub_as_of.(id) in
    let mesh_peers =
      List.filter
        (fun x -> x <> id && s.Config.sub_as_of.(x) = my_sub)
        (List.init config.n_routers Fun.id)
    in
    let confed_links =
      List.filter_map
        (fun (a, b) ->
          if a = id then Some b else if b = id then Some a else None)
        s.Config.confed_links
      |> dedup_ints
    in
    { no_roles with mesh_peers; confed_links;
      my_member_asn = Some (Config.member_asn my_sub) }
  | Config.Rcp { rcps } ->
    let is_rcp = List.mem id rcps in
    let rcp_clients =
      if is_rcp then
        List.filter (fun x -> x <> id) (List.init config.n_routers Fun.id)
      else []
    in
    { no_roles with is_rcp; rcps = List.filter (fun x -> x <> id) rcps;
      rcp_clients; is_client = not is_rcp }
  | Config.Dual { tbrr; abrr; accept = _ } ->
    abrr_roles config id abrr (tbrr_roles config id tbrr no_roles)

(* ------------------------------------------------------------------ *)

let srctbl_create () = { ribs = Hashtbl.create 8; view = None }

let create env =
  {
    env;
    self = Config.loopback env.id;
    roles = derive_roles env.config env.id;
    ebgp_rib = Rib.create ();
    ebgp_neighbors = Hashtbl.create 16;
    local_rib = Rib.create ();
    managed_trr = srctbl_create ();
    managed_arr = srctbl_create ();
    mesh_in = srctbl_create ();
    confed_in = srctbl_create ();
    managed_rcp = srctbl_create ();
    from_rcp = srctbl_create ();
    rcp_out = srctbl_create ();
    from_trr = srctbl_create ();
    from_arr = srctbl_create ();
    loc_rib = Rib.create ();
    adv_mesh = Rib.create ();
    adv_confed = Rib.create ();
    adv_rcp = Rib.create ();
    adv_trr = Rib.create ();
    adv_arr = Rib.create ();
    out_mesh = Rib.create ();
    out_clients = Rib.create ();
    out_arr = Rib.create ();
    ids_mesh = Path_id.create ();
    ids_clients = Path_id.create ();
    ids_arr = Path_id.create ();
    ids_adv_trr = Path_id.create ();
    ids_adv_arr = Path_id.create ();
    inbox = Queue.create ();
    process_scheduled = false;
    outgoing = Hashtbl.create 16;
    sessions = Hashtbl.create 16;
    damping = Hashtbl.create 16;
    counters = Counters.create ();
    rejected_loops = 0;
    up = true;
  }

let id t = t.env.id
let loopback t = t.self
let counters t = t.counters
let is_trr t = t.roles.is_trr
let is_arr t = t.roles.arr_aps <> []
let is_rcp t = t.roles.is_rcp
let arr_aps t = t.roles.arr_aps
let rejected_loops t = t.rejected_loops

(* Every route-set replacement in any RIB table goes through here so the
   rib_touches counter tracks RIB maintenance cost (OBSERVABILITY.md). *)
let rib_set t rib p routes =
  t.counters.rib_touches <- t.counters.rib_touches + 1;
  Rib.set rib p routes

let table_rib st src =
  match Hashtbl.find_opt st.ribs src with
  | Some rib -> rib
  | None ->
    let rib = Bgp.Rib.create () in
    Hashtbl.add st.ribs src rib;
    st.view <- None;
    rib

let srctbl_find_opt st src = Hashtbl.find_opt st.ribs src
let srctbl_iter f st = Hashtbl.iter f st.ribs
let srctbl_fold f st acc = Hashtbl.fold f st.ribs acc

let srctbl_remove st src =
  if Hashtbl.mem st.ribs src then begin
    Hashtbl.remove st.ribs src;
    st.view <- None
  end

let srctbl_reset st =
  Hashtbl.reset st.ribs;
  st.view <- None

(* ------------------------------------------------------------------ *)
(* Candidate construction                                              *)

let ibgp_candidate ?(learned = D.Ibgp) t src (route : R.t) =
  let peer = Config.loopback src in
  {
    D.route;
    learned;
    peer_id = peer;
    peer_addr = peer;
    igp_cost = t.env.igp_cost (R.next_hop route);
  }

let eligible (c : D.candidate) = c.igp_cost <> Igp.Spf.unreachable

(* Per-source tables in ascending source order. Candidate collection and
   route dumps must not depend on hashtable iteration order: a restored
   run rebuilds these tables in a different internal order than the
   original, and decision tie-breaks would otherwise diverge. The sorted
   view is memoized on the table (invalidated whenever the source set
   changes) — this sits on the per-decision hot path. *)
let sorted_tbl st =
  match st.view with
  | Some v -> v
  | None ->
    let v =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.ribs []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    st.view <- Some v;
    v

let table_candidates ?learned t tbl tag p acc =
  List.fold_left
    (fun acc (src, rib) ->
      List.fold_left
        (fun acc route ->
          let c = ibgp_candidate ?learned t src route in
          if eligible c then (c, src, tag) :: acc else acc)
        acc (Rib.get rib p))
    acc (sorted_tbl tbl)

let ebgp_candidates t p acc =
  List.fold_left
    (fun acc (route : R.t) ->
      let neighbor =
        match
          Hashtbl.find_opt t.ebgp_neighbors (Prefix.to_key p, route.R.path_id)
        with
        | Some n -> n
        | None -> (R.next_hop route)
      in
      let c =
        { D.route; learned = D.Ebgp; peer_id = neighbor; peer_addr = neighbor;
          igp_cost = 0 }
      in
      (c, -1, S_ebgp) :: acc)
    acc (Rib.get t.ebgp_rib p)

let local_candidates t p acc =
  List.fold_left
    (fun acc (route : R.t) ->
      let c =
        { D.route; learned = D.Local; peer_id = t.self; peer_addr = t.self;
          igp_cost = 0 }
      in
      (c, -1, S_local) :: acc)
    acc (Rib.get t.local_rib p)

let own_arr_candidates t p acc =
  (* An ARR's client function reads its own reflected set directly (the
     internal role passing of §2.1), skipping routes it injected itself. *)
  List.fold_left
    (fun acc (route : R.t) ->
      let own =
        match (R.originator_id route) with
        | Some o -> Ipv4.equal o t.self
        | None -> false
      in
      if own then acc
      else
        let c = ibgp_candidate t t.env.id route in
        if eligible c then (c, t.env.id, S_own_arr) :: acc else acc)
    acc (Rib.get t.out_arr p)

let serves_with roles p =
  match roles.partition with
  | None -> false
  | Some partition ->
    List.exists (fun ap -> Partition.prefix_in_ap partition ap p) roles.arr_aps

let serves_prefix t p = serves_with t.roles p

(* ABRR-plane candidates: from ARRs for other APs, plus own reflected set. *)
let abrr_candidates t p acc =
  let acc = table_candidates t t.from_arr S_from_arr p acc in
  if serves_prefix t p then own_arr_candidates t p acc else acc

(* TBRR-plane candidates, depending on role. *)
let tbrr_candidates t p acc =
  let acc =
    if t.roles.is_trr then
      table_candidates t t.mesh_in S_mesh p
        (table_candidates t t.managed_trr S_managed_trr p acc)
    else acc
  in
  if t.roles.my_trrs <> [] then table_candidates t t.from_trr S_from_trr p acc
  else acc

let collect_candidates t p =
  let acc = local_candidates t p (ebgp_candidates t p []) in
  match t.env.config.scheme with
  | Config.Full_mesh -> table_candidates t t.mesh_in S_mesh p acc
  | Config.Confed _ ->
    table_candidates ~learned:D.Confed_ebgp t t.confed_in S_confed p
      (table_candidates t t.mesh_in S_mesh p acc)
  | Config.Rcp _ -> table_candidates t t.from_rcp S_from_rcp p acc
  | Config.Tbrr _ -> tbrr_candidates t p acc
  | Config.Abrr _ -> abrr_candidates t p acc
  | Config.Dual { abrr; accept; _ } -> (
    let ap = Partition.ap_of_addr abrr.partition (Prefix.first p) in
    match accept.(ap) with
    | Config.Accept_abrr -> abrr_candidates t p acc
    | Config.Accept_tbrr -> tbrr_candidates t p acc)

(* ------------------------------------------------------------------ *)
(* Output plumbing                                                     *)

let enqueue t dst channel delta =
  let items =
    match Hashtbl.find_opt t.outgoing dst with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.outgoing dst r;
      r
  in
  items := (channel, delta) :: !items

let session t dst =
  match Hashtbl.find_opt t.sessions dst with
  | Some s -> s
  | None ->
    let s = { mrai_until = Time.zero; pending = Hashtbl.create 8; flush_scheduled = false } in
    Hashtbl.add t.sessions dst s;
    s

let sort_items items =
  List.sort
    (fun ((c1, d1) : Proto.item) (c2, d2) ->
      match Int.compare (Proto.channel_tag c1) (Proto.channel_tag c2) with
      | 0 -> Prefix.compare d1.Proto.prefix d2.Proto.prefix
      | c -> c)
    items

let transmit_now t dst (s : session) items =
  let items = sort_items items in
  let n_withdraw =
    List.length (List.filter (fun ((_, d) : Proto.item) -> Proto.is_withdraw d) items)
  in
  let bytes, msgs =
    Proto.wire_size
      ~add_paths:(Config.add_paths t.env.config)
      (List.map snd items)
  in
  t.counters.updates_transmitted <-
    t.counters.updates_transmitted + List.length items;
  t.counters.withdrawals_transmitted <-
    t.counters.withdrawals_transmitted + n_withdraw;
  t.counters.bytes_transmitted <- t.counters.bytes_transmitted + bytes;
  t.counters.messages_transmitted <- t.counters.messages_transmitted + msgs;
  s.mrai_until <- t.env.now () + t.env.config.mrai;
  t.env.transmit ~dst ~bytes ~msgs items

let merge_pending (s : session) ((channel, delta) : Proto.item) =
  let key = (Proto.channel_tag channel, Prefix.to_key delta.Proto.prefix) in
  let merged =
    match Hashtbl.find_opt s.pending key with
    | None -> delta
    | Some (_, old) ->
      let new_ids =
        List.map (fun (r : R.t) -> r.R.path_id) delta.Proto.routes
      in
      let carried =
        List.filter (fun i -> not (List.mem i new_ids)) old.Proto.withdrawn_ids
      in
      {
        delta with
        Proto.withdrawn_ids =
          dedup_ints (carried @ delta.Proto.withdrawn_ids);
      }
  in
  Hashtbl.replace s.pending key (channel, merged)

let send t dst items =
  if dst = t.env.id then t.env.transmit ~dst ~bytes:0 ~msgs:0 items
  else
    let s = session t dst in
    let now = t.env.now () in
    if t.env.config.mrai = Time.zero || now >= s.mrai_until then
      transmit_now t dst s items
    else begin
      t.counters.updates_suppressed <-
        t.counters.updates_suppressed + List.length items;
      List.iter (merge_pending s) items;
      if not s.flush_scheduled then begin
        s.flush_scheduled <- true;
        t.env.schedule_flush ~peer:dst (s.mrai_until - now)
      end
    end

let flush_peer t ~peer =
  (* The Mrai_flush timer cannot be cancelled once scheduled, so it can
     fire after this router went down, or after the session it was armed
     for was purged by a peer failure.  Both are stale: a down router
     must not transmit, and [session t peer] would silently re-create a
     ghost entry for a purged peer. *)
  if t.up then
    match Hashtbl.find_opt t.sessions peer with
    | None -> ()
    | Some s ->
      s.flush_scheduled <- false;
      let items = Hashtbl.fold (fun _ item acc -> item :: acc) s.pending [] in
      Hashtbl.reset s.pending;
      if items <> [] then transmit_now t peer s items

let flush_outgoing t =
  let dsts = Hashtbl.fold (fun dst _ acc -> dst :: acc) t.outgoing [] in
  let dsts = List.sort Int.compare dsts in
  List.iter
    (fun dst ->
      let items = List.rev !(Hashtbl.find t.outgoing dst) in
      send t dst items)
    dsts;
  Hashtbl.reset t.outgoing

(* ------------------------------------------------------------------ *)
(* Route derivation                                                    *)

let strip_reflection (r : R.t) =
  R.update ~originator_id:None ~cluster_list:[]
    ~ext_communities:
      (List.filter
         (fun e -> not (Bgp.Ext_community.is_reflected e))
         (R.ext_communities r))
    r

(* The client function's iBGP advertisement of an other-learned route. *)
let derive_own t (r : R.t) =
  let r = strip_reflection r in
  R.update ~next_hop:t.self ~path_id:0 r

(* A TRR reflecting an iBGP-learned route (RFC 4456 attributes). *)
let derive_trr_reflect t src (r : R.t) =
  let originator =
    match (R.originator_id r) with Some o -> o | None -> Config.loopback src
  in
  let cluster =
    match t.roles.my_cluster_ids with c :: _ -> c | [] -> t.self
  in
  R.add_cluster cluster (R.update ~originator_id:(Some originator) ~path_id:0 r)

(* An ARR reflecting a client route (§2.3.2 loop marker). *)
let derive_arr_reflect t src (r : R.t) =
  let originator =
    match (R.originator_id r) with Some o -> o | None -> Config.loopback src
  in
  let r = R.update ~originator_id:(Some originator) r in
  match t.roles.abrr_loop with
  | Config.Reflected_bit -> R.mark_reflected r
  | Config.Cluster_list -> R.add_cluster t.self r

(* A TRR's advertisement of a decision entry: iBGP-learned routes are
   reflected, other-learned ones advertised as its own. *)
let derive_reflected t ((c : D.candidate), src, _) =
  match c.D.learned with
  | D.Ibgp -> derive_trr_reflect t src c.D.route
  | D.Ebgp | D.Local | D.Confed_ebgp -> derive_own t c.D.route

(* Assign stable ids to a derived set and report whether it changed. *)
let assign_set ids p derived =
  let previous = Path_id.current ids p in
  let assigned, withdrawn = Path_id.assign ids p derived in
  let sort_ids rs =
    List.sort (fun (a : R.t) b -> Int.compare a.R.path_id b.R.path_id) rs
  in
  let changed =
    withdrawn <> []
    || not (List.equal R.equal (sort_ids previous) (sort_ids assigned))
  in
  (assigned, withdrawn, changed)

let same_single old_routes desired =
  match (old_routes, desired) with
  | [], None -> true
  | [ (old : R.t) ], Some (r : R.t) -> R.same_path old r
  | _, _ -> false

(* ------------------------------------------------------------------ *)
(* Decision-kernel picks                                               *)

let cands_of tagged = List.map (fun (c, _, _) -> c) tagged

(* The tagged entry a kernel pick came from. [D.best] and
   [D.steps_1_to_4] return elements of their input, so the physical
   lookup always succeeds. *)
let entry_of tagged (c : D.candidate) =
  List.find (fun (c', _, _) -> c' == c) tagged

let best_entry t tagged =
  Option.map (entry_of tagged)
    (D.best ~med_mode:t.env.config.med_mode (cands_of tagged))

let survivor_entries t tagged =
  List.map (entry_of tagged)
    (D.steps_1_to_4 ~med_mode:t.env.config.med_mode (cands_of tagged))

(* ------------------------------------------------------------------ *)
(* Adj-RIB-Out writer                                                  *)

(* Every per-plane Adj-RIB-Out change goes through here (DESIGN.md,
   "Implementation decisions" 5): store the new route set, count one
   generated update and enqueue the change toward each target, in the
   order [targets] iterates them. The delta is built once and shared
   (deltas are immutable); [per_target] substitutes a copy only for a
   target that must see something else. *)
let write_out t ~rib ~channel ~targets ~per_target p routes withdrawn_ids =
  rib_set t rib p routes;
  t.counters.updates_generated <- t.counters.updates_generated + 1;
  let delta = { Proto.prefix = p; routes; withdrawn_ids } in
  targets (fun dst -> enqueue t dst channel (per_target dst delta))

let to_each dsts f = List.iter f dsts

(* Single-path planes: one route under path id 0, replaced in place.
   Split horizon by withdrawal: the [sender] of the advertised route
   gets a withdrawal of whatever it was sent before, never its own route
   back. *)
let export_single ?(sender = -1) t ~rib ~channel ~targets p desired =
  if not (same_single (Rib.get rib p) desired) then
    match desired with
    | None ->
      write_out t ~rib ~channel ~targets ~per_target:(fun _ d -> d) p [] [ 0 ]
    | Some r ->
      write_out t ~rib ~channel ~targets p [ r ] []
        ~per_target:(fun dst d ->
          if dst = sender then
            { Proto.prefix = p; routes = []; withdrawn_ids = [ 0 ] }
          else d)

let originated_by addr (r : R.t) =
  match R.originator_id r with Some o -> Ipv4.equal o addr | None -> false

(* [List.exists (originated_by addr)] without a closure per target. *)
let rec any_originated_by addr = function
  | [] -> false
  | r :: rs -> originated_by addr r || any_originated_by addr rs

(* Add-paths planes: stable path ids from [ids], and a target never
   receives a route it originated. *)
let export_set t ~rib ~ids ~channel ~targets p derived =
  let assigned, withdrawn, changed = assign_set ids p derived in
  if changed then
    write_out t ~rib ~channel ~targets p assigned withdrawn
      ~per_target:(fun dst (d : Proto.delta) ->
        let addr = Config.loopback dst in
        if any_originated_by addr assigned then
          { d with
            Proto.routes =
              List.filter (fun r -> not (originated_by addr r)) assigned }
        else d)

(* ------------------------------------------------------------------ *)
(* ARR reflection (§2.1): best AS-level routes over the managed RIB.    *)

let recompute_arr t p =
  match t.roles.partition with
  | None -> ()
  | Some partition ->
    let my_aps =
      List.filter (fun ap -> Partition.prefix_in_ap partition ap p) t.roles.arr_aps
    in
    if my_aps <> [] then begin
      let tagged = table_candidates t t.managed_arr S_from_arr p [] in
      (* Loop prevention and AS-level selection do not consult the IGP, so
         include candidates regardless of next-hop reachability. *)
      let tagged =
        List.fold_left
          (fun acc (src, rib) ->
            List.fold_left
              (fun acc route ->
                let c = ibgp_candidate t src route in
                if eligible c then acc (* already included above *)
                else (c, src, S_from_arr) :: acc)
              acc (Rib.get rib p))
          tagged (sorted_tbl t.managed_arr)
      in
      let derived =
        List.map
          (fun ((c : D.candidate), src, _) -> derive_arr_reflect t src c.D.route)
          (survivor_entries t tagged)
      in
      export_set t ~rib:t.out_arr ~ids:t.ids_arr ~channel:Proto.From_arr
        ~targets:(iter_reflect_targets t.env.config t.roles.abrr_arrs ~aps:my_aps)
        p derived
    end

(* ------------------------------------------------------------------ *)
(* TRR reflection                                                      *)

let source_is_clientside tag =
  match tag with
  | S_managed_trr | S_ebgp | S_local -> true
  | S_mesh | S_confed | S_managed_rcp | S_from_rcp | S_from_trr | S_from_arr
  | S_own_arr ->
    false

let trr_tagged t p =
  local_candidates t p (ebgp_candidates t p [])
  |> table_candidates t t.managed_trr S_managed_trr p
  |> table_candidates t t.mesh_in S_mesh p

let clientside tagged =
  List.filter (fun (_, _, tag) -> source_is_clientside tag) tagged

(* The derived route of a best entry and the peer it came from. *)
let reflect_best t = function
  | None -> (None, -1)
  | Some ((_, src, _) as entry) -> (Some (derive_reflected t entry), src)

let recompute_trr_single t p =
  let tagged = trr_tagged t p in
  let best = best_entry t tagged in
  let derived, sender = reflect_best t best in
  (* To clients: the best route, never back to the client it came from. *)
  export_single t ~rib:t.out_clients ~channel:Proto.From_trr
    ~targets:(to_each t.roles.my_trr_clients) ~sender p derived;
  (* To the TRR mesh: only routes from clients / eBGP / local (Table 1).
     With best-external, the best client-side route is advertised even
     when the overall best was learned from the mesh. *)
  let mesh_desired, mesh_sender =
    match best with
    | Some (_, _, tag) when source_is_clientside tag -> (derived, sender)
    | Some _ | None ->
      if t.roles.tbrr_best_external then
        reflect_best t (best_entry t (clientside tagged))
      else (None, -1)
  in
  export_single t ~rib:t.out_mesh ~channel:Proto.Mesh
    ~targets:(to_each t.roles.trr_mesh) ~sender:mesh_sender p mesh_desired

let recompute_trr_multi t p =
  let tagged = trr_tagged t p in
  let export ~rib ~ids ~channel ~targets entries =
    export_set t ~rib ~ids ~channel ~targets:(to_each targets) p
      (List.map (derive_reflected t) (survivor_entries t entries))
  in
  export ~rib:t.out_clients ~ids:t.ids_clients ~channel:Proto.From_trr
    ~targets:t.roles.my_trr_clients tagged;
  export ~rib:t.out_mesh ~ids:t.ids_mesh ~channel:Proto.Mesh
    ~targets:t.roles.trr_mesh (clientside tagged)

(* ------------------------------------------------------------------ *)
(* Client function: decision + export                                  *)

let tbrr_active t =
  match t.env.config.scheme with
  | Config.Tbrr _ | Config.Dual _ -> true
  | Config.Full_mesh | Config.Abrr _ | Config.Confed _ | Config.Rcp _ -> false

let abrr_active t =
  match t.env.config.scheme with
  | Config.Abrr _ | Config.Dual _ -> true
  | Config.Full_mesh | Config.Tbrr _ | Config.Confed _ | Config.Rcp _ -> false

(* Table 1 reads "best routes" (plural): on add-paths planes the client
   advertises every other-learned route that ties at AS level — exactly
   what makes the ARR's managed RIB equal #BAL x #Prefixes / #APs in
   Appendix A.1. *)
let own_as_level_survivors t tagged =
  let survivors =
    D.steps_1_to_4 ~med_mode:t.env.config.med_mode (cands_of tagged)
  in
  List.filter_map
    (fun (c : D.candidate) ->
      match c.D.learned with
      | D.Ebgp | D.Local -> Some (derive_own t c.D.route)
      | D.Ibgp | D.Confed_ebgp -> None)
    survivors

let client_export t p tagged (winner : (D.candidate * int * src_tag) option) =
  if t.roles.is_client then begin
    let desired =
      match winner with
      | Some (c, _, _) when c.D.learned = D.Ebgp || c.D.learned = D.Local ->
        Some (derive_own t c.D.route)
      | Some _ | None -> None
    in
    let own_survivors () = own_as_level_survivors t tagged in
    (match t.env.config.scheme with
    | Config.Full_mesh ->
      export_single t ~rib:t.adv_mesh ~channel:Proto.Mesh
        ~targets:(to_each t.roles.mesh_peers) p desired
    | Config.Tbrr _ | Config.Abrr _ | Config.Confed _ | Config.Rcp _
    | Config.Dual _ -> ());
    if tbrr_active t && t.roles.my_trrs <> [] then begin
      let targets = to_each t.roles.my_trrs in
      if t.roles.tbrr_multipath then
        export_set t ~rib:t.adv_trr ~ids:t.ids_adv_trr ~channel:Proto.To_trr
          ~targets p (own_survivors ())
      else export_single t ~rib:t.adv_trr ~channel:Proto.To_trr ~targets p desired
    end;
    if abrr_active t then begin
      match t.roles.partition with
      | None -> ()
      | Some partition ->
        let aps = Partition.aps_of_prefix partition p in
        let targets =
          dedup_ints (List.concat_map (fun ap -> t.roles.abrr_arrs.(ap)) aps)
        in
        export_set t ~rib:t.adv_arr ~ids:t.ids_adv_arr ~channel:Proto.To_arr
          ~targets:(to_each targets) p (own_survivors ())
    end
  end

let run_decision t p =
  let tagged = collect_candidates t p in
  let winner = best_entry t tagged in
  let old = Rib.get t.loc_rib p in
  let new_route = Option.map (fun (c, _, _) -> (c : D.candidate).D.route) winner in
  let changed = not (same_single old new_route) in
  if changed then begin
    (match new_route with
    | Some r -> rib_set t t.loc_rib p [ r ]
    | None -> rib_set t t.loc_rib p []);
    t.counters.last_change <- t.env.now ();
    t.env.on_best_change p new_route
  end;
  (winner, tagged)

(* Confederation advertisement rules (RFC 5065): inside the sub-AS the
   best route is advertised iff it is not iBGP-learned (eBGP, local or
   confed-external); over confed-eBGP links the best route is always
   advertised (with our member ASN prepended to AS_CONFED_SEQUENCE),
   relying on receiver-side confed loop detection plus split-horizon
   withdrawal toward the sender. *)
let confed_export t p (winner : (D.candidate * int * src_tag) option) =
  let my_asn =
    match t.roles.my_member_asn with Some a -> a | None -> Bgp.Asn.of_int 0
  in
  let derive_base (c : D.candidate) =
    match c.D.learned with
    | D.Ebgp | D.Local -> derive_own t c.D.route
    | D.Confed_ebgp | D.Ibgp -> { (strip_reflection c.D.route) with R.path_id = 0 }
  in
  let mesh_desired =
    match winner with
    | Some (c, _, _) when c.D.learned <> D.Ibgp -> Some (derive_base c)
    | Some _ | None -> None
  in
  export_single t ~rib:t.adv_mesh ~channel:Proto.Mesh
    ~targets:(to_each t.roles.mesh_peers) p mesh_desired;
  let confed_desired =
    Option.map
      (fun ((c : D.candidate), _, _) ->
        let r = derive_base c in
        R.update ~as_path:(As_path.prepend_confed my_asn (R.as_path r)) r)
      winner
  in
  let sender = match winner with Some (_, s, _) -> s | None -> -1 in
  export_single t ~rib:t.adv_confed ~channel:Proto.Confed
    ~targets:(to_each t.roles.confed_links) ~sender p confed_desired

let confed_active t =
  match t.env.config.scheme with
  | Config.Confed _ -> true
  | Config.Full_mesh | Config.Tbrr _ | Config.Abrr _ | Config.Rcp _
  | Config.Dual _ ->
    false

let rcp_active t =
  match t.env.config.scheme with
  | Config.Rcp _ -> true
  | Config.Full_mesh | Config.Tbrr _ | Config.Abrr _ | Config.Confed _
  | Config.Dual _ ->
    false

(* RCP node (related work §5): compute each client's best path from that
   client's own IGP vantage over the platform's complete visibility, and
   maintain a per-client Adj-RIB-Out. *)
let recompute_rcp t p =
  let all =
    List.fold_left
      (fun acc (src, rib) ->
        List.fold_left (fun acc route -> (src, route) :: acc) acc (Rib.get rib p))
      [] (sorted_tbl t.managed_rcp)
  in
  List.iter
    (fun client ->
      let tagged =
        List.filter_map
          (fun (src, (route : R.t)) ->
            let cost = t.env.igp_cost_from ~src:client (R.next_hop route) in
            if cost = Igp.Spf.unreachable then None
            else
              Some
                ( {
                    D.route;
                    learned = (if src = client then D.Ebgp else D.Ibgp);
                    peer_id = Config.loopback src;
                    peer_addr = Config.loopback src;
                    igp_cost = cost;
                  },
                  src,
                  S_managed_rcp ))
          all
      in
      let desired =
        match best_entry t tagged with
        | Some (c, src, _) when src <> client ->
          Some
            (R.update ~path_id:0 ~originator_id:(Some (Config.loopback src))
               c.D.route)
        | Some _ | None -> None (* the client's own route: nothing to teach *)
      in
      export_single t ~rib:(table_rib t.rcp_out client) ~channel:Proto.From_rcp
        ~targets:(fun f -> f client) p desired)
    t.roles.rcp_clients

let rcp_client_export t p tagged =
  if t.roles.is_client then
    export_set t ~rib:t.adv_rcp ~ids:t.ids_adv_arr ~channel:Proto.To_rcp
      ~targets:(to_each t.roles.rcps) p (own_as_level_survivors t tagged)

let recompute t p =
  if abrr_active t then recompute_arr t p;
  if t.roles.is_rcp then recompute_rcp t p;
  let winner, tagged = run_decision t p in
  if confed_active t then confed_export t p winner
  else if rcp_active t then rcp_client_export t p tagged
  else client_export t p tagged winner;
  if t.roles.is_trr && tbrr_active t then
    if t.roles.tbrr_multipath then recompute_trr_multi t p
    else recompute_trr_single t p

(* ------------------------------------------------------------------ *)
(* Input application                                                   *)

let reject_loop t = t.rejected_loops <- t.rejected_loops + 1

let has_my_cluster_id t (r : R.t) =
  List.exists (fun c -> R.in_cluster_list c r) t.roles.my_cluster_ids

let filter_incoming t channel (r : R.t) =
  (* Returns [None] to discard the route (loop prevention). *)
  match channel with
  | Proto.Mesh | Proto.To_trr ->
    if has_my_cluster_id t r then None
    else if R.originator_id r = Some t.self then None
    else Some r
  | Proto.To_arr -> (
    match t.roles.abrr_loop with
    | Config.Reflected_bit -> if R.is_reflected r then None else Some r
    | Config.Cluster_list -> if (R.cluster_list r) <> [] then None else Some r)
  | Proto.Confed -> (
    (* RFC 5065 loop detection: our member ASN in a confed segment *)
    match t.roles.my_member_asn with
    | Some asn when As_path.confed_contains asn (R.as_path r) -> None
    | Some _ | None -> Some r)
  | Proto.To_rcp -> Some r
  | Proto.From_trr | Proto.From_arr | Proto.From_rcp ->
    if R.originator_id r = Some t.self then None else Some r

(* What a client stores from a reflector's advertised set (§3.4). Under
   always-compare MED one best route suffices for full-mesh-equivalent
   decisions. Under per-neighbour-AS MED the client must keep one route
   per neighbour AS (deterministic-MED-style storage): a discarded
   low-MED route could otherwise fail to eliminate the client's own
   eBGP route from the same AS (footnote 1 of the paper). *)
let best_of_set t src routes =
  match routes with
  | [] | [ _ ] -> routes
  | _ -> (
    let med_mode = t.env.config.med_mode in
    let pick group =
      let cands = List.map (ibgp_candidate t src) group in
      let usable = List.filter eligible cands in
      if usable = [] then group
      else
        match D.best ~med_mode usable with
        | Some c -> [ c.D.route ]
        | None -> group
    in
    match med_mode with
    | D.Always_compare -> pick routes
    | D.Per_neighbor_as ->
      let groups = Hashtbl.create 4 in
      let order = ref [] in
      List.iter
        (fun r ->
          let key =
            match R.neighbor_as r with Some a -> Bgp.Asn.to_int a | None -> -1
          in
          match Hashtbl.find_opt groups key with
          | Some l -> l := r :: !l
          | None ->
            Hashtbl.add groups key (ref [ r ]);
            order := key :: !order)
        routes;
      List.concat_map
        (fun key -> pick (List.rev !(Hashtbl.find groups key)))
        (List.rev !order))

(* Every prefix with state anywhere in this router: all Adj-RIB-Ins
   (plain and per-peer) plus the Loc-RIB and derived advert tables,
   each distinct prefix visited once. This replaces the retired [seen]
   table — a prefix absent from every RIB has no candidates, so
   recomputing it is a no-op and forgetting it is outcome-identical;
   meanwhile a per-router forever-grown prefix set is exactly what a
   paper-scale run cannot afford. *)
let iter_known t f =
  let visited = Hashtbl.create 256 in
  let visit p =
    let k = Prefix.to_key p in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.add visited k ();
      f p
    end
  in
  let rib r = Rib.iter (fun p _ -> visit p) r in
  List.iter rib
    [ t.ebgp_rib; t.local_rib; t.loc_rib; t.adv_mesh; t.adv_confed; t.adv_rcp;
      t.adv_trr; t.adv_arr; t.out_mesh; t.out_clients; t.out_arr ];
  List.iter
    (fun tbl -> srctbl_iter (fun _ r -> rib r) tbl)
    [ t.managed_trr; t.managed_arr; t.mesh_in; t.confed_in; t.managed_rcp;
      t.from_rcp; t.rcp_out; t.from_trr; t.from_arr ]

(* ------------------------------------------------------------------ *)
(* Incremental decision (DESIGN.md, "Incremental decision").
   Input application accumulates one churn record per dirty prefix:
   which decision planes the batch's events can influence, and the
   routes that entered or left a stored table. At batch end each dirty
   prefix is classified once against the cached per-plane incumbents —
   the heads of the RIBs the previous computation wrote — and the full
   recomputation runs only when a churned route is not provably
   irrelevant ([Decision.intrinsic_loses]). Under [Config.Naive] the
   classification still runs (the counters must match exactly) but
   every dirty prefix recomputes, which is the differential oracle. *)

(* Which cached incumbents an event stored via a given channel can
   challenge. The Loc-RIB plane covers every output derived from the
   full candidate set (client/confed/RCP-client exports are functions of
   the winner and the step-1-4 survivors); the TRR planes cover the
   reflector outputs computed over the clientside/mesh candidate subset;
   the ARR plane covers the reflected best-AS-level set over the managed
   RIB. *)
let plane_loc = 1
let plane_trr = 2   (* out_clients: reflected best over the TRR subset *)
let plane_mesh = 4  (* out_mesh: clientside best/survivors toward the mesh *)
let plane_arr = 8   (* out_arr: best-AS-level set over managed_arr *)

type churn = {
  mutable ch_full : bool;  (* structural event: always recompute *)
  mutable ch_planes : int;
  mutable ch_routes : R.t list;  (* routes added to / removed from tables *)
}

let planes_of_channel = function
  | Proto.Mesh -> plane_loc lor plane_trr
  | Proto.Confed -> plane_loc
  | Proto.To_rcp -> 0 (* RCP nodes always recompute in full *)
  | Proto.From_rcp -> plane_loc
  | Proto.To_trr -> plane_loc lor plane_trr lor plane_mesh
  | Proto.To_arr -> plane_arr
  | Proto.From_trr -> plane_loc
  | Proto.From_arr -> plane_loc

let planes_clientside = plane_loc lor plane_trr lor plane_mesh

let new_churn () = { ch_full = false; ch_planes = 0; ch_routes = [] }
let churn_of dirty p = Rib.Dirty.mark dirty p new_churn
let mark_full dirty p = (churn_of dirty p).ch_full <- true
let mark_noop dirty p = ignore (churn_of dirty p)

let mark_delta dirty p planes routes =
  let c = churn_of dirty p in
  c.ch_planes <- c.ch_planes lor planes;
  c.ch_routes <- List.rev_append routes c.ch_routes

(* Classify one dirty prefix: [`Noop] when the batch left every stored
   table unchanged, [`Delta] when every churned route strictly loses to
   the head of each plane it could challenge (arrivals are eliminated in
   steps 1-4 and withdrawals were never survivors, so no output can
   change), [`Full] otherwise. An empty flagged incumbent means the
   challenger would win by default — Full. Plane flags outside the
   router's roles are ignored: the planes they would guard are never
   computed here. *)
let classify t p (c : churn) =
  if c.ch_full || t.roles.is_rcp then `Full
  else if c.ch_routes = [] then `Noop
  else begin
    let med_mode = t.env.config.med_mode in
    let loses_to rib =
      match Rib.get rib p with
      | [] -> false
      | (incumbent : R.t) :: _ ->
        List.for_all
          (fun r -> D.intrinsic_loses ~med_mode ~incumbent r)
          c.ch_routes
    in
    let need plane = c.ch_planes land plane <> 0 in
    let trr = t.roles.is_trr && tbrr_active t in
    if
      (not (need plane_loc) || loses_to t.loc_rib)
      && ((not trr) || not (need plane_trr) || loses_to t.out_clients)
      && ((not trr)
         || not (t.roles.tbrr_multipath || t.roles.tbrr_best_external)
         || not (need plane_mesh)
         || loses_to t.out_mesh)
      && (not (abrr_active t && need plane_arr && serves_prefix t p)
         || loses_to t.out_arr)
    then `Delta
    else `Full
  end

(* Decide every dirty prefix exactly once, in prefix order. The counters
   are incremented identically under both engines; only whether the sound
   skips actually skip differs — and a naive recomputation of a skipped
   prefix changes no RIB, generates no update and stamps no change, so
   the two engines stay counter- and snapshot-identical. *)
let run_batch t dirty =
  let incremental = t.env.config.decision = Config.Incremental in
  List.iter
    (fun (p, c) ->
      t.counters.decisions_run <- t.counters.decisions_run + 1;
      match classify t p c with
      | `Full ->
        t.counters.decisions_full <- t.counters.decisions_full + 1;
        recompute t p
      | `Delta ->
        t.counters.decisions_delta <- t.counters.decisions_delta + 1;
        if not incremental then recompute t p
      | `Noop ->
        t.counters.decisions_skipped <- t.counters.decisions_skipped + 1;
        if not incremental then recompute t p)
    (Rib.Dirty.drain dirty)

let apply_item t src ((channel, delta) : Proto.item) dirty =
  let p = delta.Proto.prefix in
  let keep, rejected =
    List.partition_map
      (fun r ->
        match filter_incoming t channel r with
        | Some r -> Left r
        | None -> Right r)
      delta.Proto.routes
  in
  if rejected <> [] then reject_loop t;
  let store tbl ~best_only =
    let rib = table_rib tbl src in
    let routes =
      if best_only && not t.env.config.store_full_sets then best_of_set t src keep
      else keep
    in
    let old = Rib.get rib p in
    rib_set t rib p routes;
    if List.equal R.equal old routes then mark_noop dirty p
    else begin
      let adds =
        List.filter (fun r -> not (List.exists (R.equal r) old)) routes
      in
      let rems =
        List.filter (fun r -> not (List.exists (R.equal r) routes)) old
      in
      (* Routes common to both sets must keep their relative order: the
         stored order feeds candidate collection and hence derived-set
         path-id assignment, so a reorder is not a pure add/remove. *)
      let common_old = List.filter (fun r -> List.exists (R.equal r) routes) old in
      let common_new = List.filter (fun r -> List.exists (R.equal r) old) routes in
      if adds = [] && rems = [] then mark_full dirty p
      else if List.equal R.equal common_old common_new then
        mark_delta dirty p (planes_of_channel channel) (adds @ rems)
      else mark_full dirty p
    end
  in
  match channel with
  | Proto.Mesh -> store t.mesh_in ~best_only:false
  | Proto.Confed -> store t.confed_in ~best_only:false
  | Proto.To_rcp ->
    if t.roles.is_rcp then store t.managed_rcp ~best_only:false
    else reject_loop t
  | Proto.From_rcp -> store t.from_rcp ~best_only:false
  | Proto.To_trr ->
    if t.roles.is_trr then store t.managed_trr ~best_only:false
    else reject_loop t
  | Proto.To_arr ->
    if t.roles.arr_aps <> [] && serves_prefix t p then
      store t.managed_arr ~best_only:false
    else reject_loop t
  | Proto.From_trr -> store t.from_trr ~best_only:true
  | Proto.From_arr -> store t.from_arr ~best_only:true

(* ------------------------------------------------------------------ *)
(* Route-flap damping (RFC 2439 style, Bgp.Damping arithmetic). Hooks
   sit on the eBGP announce/withdraw paths only — iBGP-learned state is
   never damped. A suppressed route leaves [ebgp_rib] entirely, so the
   decision process, invariant checks and snapshots all agree the route
   is (temporarily) not a candidate. *)

let damp_entry_fresh now neighbor =
  { dp_penalty = 0.; dp_stamp = now; dp_held = None; dp_neighbor = neighbor;
    dp_wake = Time.zero }

let damp_bring_current params e now =
  e.dp_penalty <- Damping.decay params ~penalty:e.dp_penalty ~dt:(now - e.dp_stamp);
  e.dp_stamp <- now

(* Arm a Process wake-up for when the penalty will have decayed under
   the reuse threshold (+1 ms of slack against float rounding). The
   [dp_wake] stamp keeps repeated suppressions from flooding the event
   queue with redundant timers. *)
let damp_schedule_reuse t params e now =
  let delay = Damping.reuse_delay params ~penalty:e.dp_penalty + Time.ms 1 in
  if now + delay > e.dp_wake then begin
    e.dp_wake <- now + delay;
    t.env.schedule_process delay
  end

(* Returns [true] when the announcement was absorbed (the route is, or
   just became, suppressed) — the caller then skips the normal install. *)
let damp_announce t params ~neighbor (route : R.t) dirty =
  let p = route.R.prefix in
  let key = (Prefix.to_key p, route.R.path_id) in
  let now = t.env.now () in
  match Hashtbl.find_opt t.damping key with
  | Some e when e.dp_held <> None ->
    (* Still suppressed: remember the freshest offer, nothing else. *)
    damp_bring_current params e now;
    e.dp_held <- Some route;
    e.dp_neighbor <- neighbor;
    mark_noop dirty p;
    true
  | entry_opt ->
    let prev =
      List.find_opt
        (fun (r : R.t) -> r.R.path_id = route.R.path_id)
        (Rib.get t.ebgp_rib p)
    in
    let attr_changed =
      match prev with Some old -> not (R.same_path old route) | None -> false
    in
    (match entry_opt with
    | Some e -> damp_bring_current params e now
    | None -> ());
    let entry_opt =
      if attr_changed then begin
        let e =
          match entry_opt with
          | Some e -> e
          | None ->
            let e = damp_entry_fresh now neighbor in
            Hashtbl.add t.damping key e;
            e
        in
        e.dp_penalty <-
          Damping.penalize params ~penalty:e.dp_penalty ~dt:Time.zero
            Damping.Attr_change;
        Some e
      end
      else entry_opt
    in
    (match entry_opt with
    | Some e when Damping.suppresses params e.dp_penalty ->
      (match prev with
      | Some pr ->
        ignore (Rib.drop t.ebgp_rib p ~path_id:pr.R.path_id);
        Hashtbl.remove t.ebgp_neighbors key;
        mark_delta dirty p planes_clientside [ pr ]
      | None -> mark_noop dirty p);
      e.dp_held <- Some route;
      e.dp_neighbor <- neighbor;
      t.counters.routes_damped <- t.counters.routes_damped + 1;
      damp_schedule_reuse t params e now;
      true
    | Some _ | None -> false)

let damp_withdraw t params ~neighbor ~prefix ~path_id =
  let key = (Prefix.to_key prefix, path_id) in
  let now = t.env.now () in
  let e =
    match Hashtbl.find_opt t.damping key with
    | Some e -> e
    | None ->
      let e = damp_entry_fresh now neighbor in
      Hashtbl.add t.damping key e;
      e
  in
  e.dp_penalty <-
    Damping.penalize params ~penalty:e.dp_penalty ~dt:(now - e.dp_stamp)
      Damping.Withdrawal;
  e.dp_stamp <- now;
  (* Withdrawing a suppressed route: nothing is on offer any more, so
     there is nothing left to reinstate. The penalty stays. *)
  if e.dp_held <> None then e.dp_held <- None

(* The per-batch maturation pass: reinstate held routes whose penalty
   decayed under the reuse threshold, re-arm wake-ups for those still
   suppressed, and drop fully-decayed idle entries. Deterministic order
   (sorted keys) — reinstatements feed the same decision batch. *)
let damping_pass t dirty =
  match t.env.config.Config.damping with
  | None -> ()
  | Some params ->
    if Hashtbl.length t.damping > 0 then begin
      let now = t.env.now () in
      let entries =
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.damping []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun ((key, e) : (int * int) * damp_entry) ->
          damp_bring_current params e now;
          match e.dp_held with
          | Some r when Damping.reusable params e.dp_penalty ->
            e.dp_held <- None;
            ignore (Rib.upsert t.ebgp_rib r);
            Hashtbl.replace t.ebgp_neighbors key e.dp_neighbor;
            mark_delta dirty r.R.prefix planes_clientside [ r ]
          | Some _ -> damp_schedule_reuse t params e now
          | None ->
            (* A decayed-out entry with no held route carries no
               information any more. *)
            if e.dp_penalty < 1. then Hashtbl.remove t.damping key)
        entries
    end

let apply_input t input dirty =
  match input with
  | In_items { src; items } -> List.iter (fun item -> apply_item t src item dirty) items
  | In_ebgp { neighbor; route } ->
    let absorbed =
      match t.env.config.Config.damping with
      | Some params -> damp_announce t params ~neighbor route dirty
      | None -> false
    in
    if not absorbed then begin
      let p = route.R.prefix in
      let key = Prefix.to_key p in
      let prev =
        List.find_opt
          (fun (r : R.t) -> r.R.path_id = route.R.path_id)
          (Rib.get t.ebgp_rib p)
      in
      let changed = Rib.upsert t.ebgp_rib route in
      let neighbor_changed =
        match Hashtbl.find_opt t.ebgp_neighbors (key, route.R.path_id) with
        | Some n -> not (Ipv4.equal n neighbor)
        | None -> false
      in
      Hashtbl.replace t.ebgp_neighbors (key, route.R.path_id) neighbor;
      (* Re-announcing the stored route verbatim is a decision no-op; a
         neighbour change with identical attributes still shifts the
         candidate's peer identity (steps 7-8), so it recomputes in full. *)
      if neighbor_changed then mark_full dirty p
      else if not changed then mark_noop dirty p
      else mark_delta dirty p planes_clientside (route :: Option.to_list prev)
    end
  | In_ebgp_withdraw { neighbor; prefix; path_id } ->
    (match t.env.config.Config.damping with
    | Some params -> damp_withdraw t params ~neighbor ~prefix ~path_id
    | None -> ());
    let key = Prefix.to_key prefix in
    let prev =
      List.find_opt
        (fun (r : R.t) -> r.R.path_id = path_id)
        (Rib.get t.ebgp_rib prefix)
    in
    if Rib.drop t.ebgp_rib prefix ~path_id then begin
      Hashtbl.remove t.ebgp_neighbors (key, path_id);
      mark_delta dirty prefix planes_clientside (Option.to_list prev)
    end
  | In_local route ->
    let p = route.R.prefix in
    let prev =
      List.find_opt
        (fun (r : R.t) -> r.R.path_id = route.R.path_id)
        (Rib.get t.local_rib p)
    in
    if Rib.upsert t.local_rib route then
      mark_delta dirty p planes_clientside (route :: Option.to_list prev)
    else mark_noop dirty p
  | In_local_withdraw { prefix; path_id } ->
    let prev =
      List.find_opt
        (fun (r : R.t) -> r.R.path_id = path_id)
        (Rib.get t.local_rib prefix)
    in
    if Rib.drop t.local_rib prefix ~path_id then
      mark_delta dirty prefix planes_clientside (Option.to_list prev)
  | In_redecide_all -> iter_known t (fun p -> mark_full dirty p)

let process_now t =
  t.process_scheduled <- false;
  if not t.up then Queue.clear t.inbox
  else begin
  let dirty = Rib.Dirty.create () in
  let rec drain () =
    match Queue.take_opt t.inbox with
    | None -> ()
    | Some input ->
      apply_input t input dirty;
      drain ()
  in
  drain ();
  damping_pass t dirty;
  run_batch t dirty;
  flush_outgoing t
  end

let ensure_process t =
  if not t.process_scheduled then begin
    t.process_scheduled <- true;
    t.env.schedule_process (Config.proc_delay_of t.env.config t.env.id)
  end

let push t input =
  Queue.add input t.inbox;
  ensure_process t

(* ------------------------------------------------------------------ *)
(* Public inputs                                                       *)

let receive t ~src ~items ~bytes ~msgs =
  ignore msgs;
  if not t.up then ()
  else begin
  if src <> t.env.id then begin
    t.counters.updates_received <- t.counters.updates_received + List.length items;
    t.counters.withdrawals_received <-
      t.counters.withdrawals_received
      + List.length (List.filter (fun ((_, d) : Proto.item) -> Proto.is_withdraw d) items);
    t.counters.bytes_received <- t.counters.bytes_received + bytes
  end;
  (* Coalesce after counting: received-update accounting sees the wire
     items, state application only needs the last delta per key. *)
  push t (In_items { src; items = Proto.coalesce items })
  end

let inject_ebgp t ~neighbor route = push t (In_ebgp { neighbor; route })

let withdraw_ebgp t ~neighbor prefix ~path_id =
  push t (In_ebgp_withdraw { neighbor; prefix; path_id })

let originate t route = push t (In_local route)
let withdraw_local t prefix ~path_id = push t (In_local_withdraw { prefix; path_id })
let redecide_all t = push t In_redecide_all
let is_up t = t.up

(* Session teardown towards a failed peer: forget everything learned
   from it and stop holding pending output for it. *)
let purge_peer t ~peer =
  if t.up then begin
    let drop tbl =
      match srctbl_find_opt tbl peer with
      | None -> []
      | Some rib ->
        let prefixes = Rib.prefixes rib in
        srctbl_remove tbl peer;
        prefixes
    in
    let dirty =
      List.concat_map drop
        [ t.managed_trr; t.managed_arr; t.managed_rcp; t.mesh_in; t.confed_in;
          t.from_trr; t.from_arr; t.from_rcp ]
    in
    Hashtbl.remove t.sessions peer;
    if dirty <> [] then begin
      (* Wholesale table drops invalidate plane incumbents structurally:
         every affected prefix recomputes in full. *)
      let d = Rib.Dirty.create () in
      List.iter (fun p -> mark_full d p) dirty;
      run_batch t d;
      flush_outgoing t
    end
  end

(* Session re-establishment towards a recovered peer: replay the current
   Adj-RIB-Out state that peer is entitled to (BGP's initial full table
   exchange). *)
let refresh_to t ~peer =
  if t.up then begin
    let replay rib channel entitled =
      Rib.iter
        (fun p routes ->
          if entitled p then
            enqueue t peer channel
              { Proto.prefix = p; routes; withdrawn_ids = [] })
        rib
    in
    let always _ = true in
    if List.mem peer t.roles.mesh_peers then replay t.adv_mesh Proto.Mesh always;
    if List.mem peer t.roles.confed_links then
      replay t.adv_confed Proto.Confed always;
    if List.mem peer t.roles.rcps then replay t.adv_rcp Proto.To_rcp always;
    if t.roles.is_rcp then (
      match srctbl_find_opt t.rcp_out peer with
      | Some rib -> replay rib Proto.From_rcp always
      | None -> ());
    if List.mem peer t.roles.my_trrs then begin
      replay t.adv_trr Proto.To_trr always
    end;
    (match t.roles.partition with
    | Some partition ->
      let arr_of p =
        List.exists
          (fun ap -> List.mem peer t.roles.abrr_arrs.(ap))
          (Partition.aps_of_prefix partition p)
      in
      replay t.adv_arr Proto.To_arr arr_of
    | None -> ());
    if t.roles.is_trr then begin
      if List.mem peer t.roles.my_trr_clients then
        replay t.out_clients Proto.From_trr always;
      if List.mem peer t.roles.trr_mesh then replay t.out_mesh Proto.Mesh always
    end;
    (match t.roles.partition with
    | Some partition ->
      let target_of p =
        List.exists
          (fun ap ->
            Partition.prefix_in_ap partition ap p
            && reflects_to t.env.config t.roles.abrr_arrs ~ap peer)
          t.roles.arr_aps
      in
      replay t.out_arr Proto.From_arr target_of
    | None -> ());
    flush_outgoing t
  end

(* Live repartition (scenario drill): the caller has already mutated the
   shared [Config.abrr_spec] in place; re-derive this router's roles and
   reconcile the ABRR state machine with them.

   ARR side — prefixes that moved out of our APs: withdraw the reflected
   set from the targets the OLD roles advertised it to, drop the
   out_arr/managed_arr state, and recompute the prefix (our own decision
   may have read the reflected set).

   Client side — prefixes whose responsible-ARR set gained members:
   advertise the current exported set ([adv_arr]) to the new ARRs only.
   The ARRs that lost the prefix purge their copy locally in their own
   [apply_repartition]; sending them explicit To_arr withdrawals would
   only be rejected ([apply_item] refuses To_arr for unserved prefixes).
   This is what keeps the movement minimal: only prefixes inside the
   partition delta range generate any traffic at all. *)
let apply_repartition t =
  let old_roles = t.roles in
  t.roles <- derive_roles t.env.config t.env.id;
  let new_roles = t.roles in
  if t.up then begin
    let dirty = Rib.Dirty.create () in
    (* ARR side: retire prefixes no longer in our APs. *)
    let retired = Hashtbl.create 16 in
    let note p =
      if serves_with old_roles p && not (serves_with new_roles p) then
        Hashtbl.replace retired (Prefix.to_key p) p
    in
    List.iter note (Rib.prefixes t.out_arr);
    srctbl_iter (fun _ rib -> List.iter note (Rib.prefixes rib)) t.managed_arr;
    let retired =
      Hashtbl.fold (fun _ p acc -> p :: acc) retired []
      |> List.sort Prefix.compare
    in
    List.iter
      (fun p ->
        let withdrawn = Path_id.drop_prefix t.ids_arr p in
        if withdrawn <> [] then begin
          let old_aps =
            match old_roles.partition with
            | Some part ->
              List.filter
                (fun ap -> Partition.prefix_in_ap part ap p)
                old_roles.arr_aps
            | None -> []
          in
          iter_reflect_targets t.env.config old_roles.abrr_arrs ~aps:old_aps
            (fun dst ->
              enqueue t dst Proto.From_arr
                { Proto.prefix = p; routes = []; withdrawn_ids = withdrawn })
        end;
        if Rib.get t.out_arr p <> [] then rib_set t t.out_arr p [];
        srctbl_iter
          (fun _ rib -> if Rib.get rib p <> [] then rib_set t rib p [])
          t.managed_arr;
        mark_full dirty p)
      retired;
    t.counters.Counters.prefixes_moved_on_repartition <-
      t.counters.Counters.prefixes_moved_on_repartition + List.length retired;
    (* Client side: feed newly-responsible ARRs our exported set. *)
    (match (old_roles.partition, new_roles.partition) with
    | Some oldp, Some newp ->
      let arrs_of part (arrs : int list array) p =
        dedup_ints
          (List.concat_map
             (fun ap -> arrs.(ap))
             (Partition.aps_of_prefix part p))
      in
      Rib.iter
        (fun p routes ->
          if routes <> [] then begin
            let old_arrs = arrs_of oldp old_roles.abrr_arrs p in
            let new_arrs = arrs_of newp new_roles.abrr_arrs p in
            let added =
              List.filter (fun a -> not (List.mem a old_arrs)) new_arrs
            in
            List.iter
              (fun dst ->
                enqueue t dst Proto.To_arr
                  { Proto.prefix = p; routes; withdrawn_ids = [] })
              added
          end)
        t.adv_arr
    | _ -> ());
    run_batch t dirty;
    flush_outgoing t
  end

let set_down t =
  t.up <- false;
  Queue.clear t.inbox;
  Hashtbl.reset t.outgoing

(* Cold start: all BGP state is lost (eBGP feeds must be re-injected by
   the caller, as a rebooted router would re-learn them). *)
let set_up_cold t =
  t.up <- true;
  Rib.clear t.ebgp_rib;
  Hashtbl.reset t.ebgp_neighbors;
  Rib.clear t.local_rib;
  List.iter srctbl_reset
    [ t.managed_trr; t.managed_arr; t.managed_rcp; t.mesh_in; t.confed_in;
      t.from_trr; t.from_arr; t.from_rcp; t.rcp_out ];
  List.iter Rib.clear
    [ t.loc_rib; t.adv_mesh; t.adv_confed; t.adv_trr; t.adv_arr; t.adv_rcp;
      t.out_mesh; t.out_clients; t.out_arr ];
  List.iter Path_id.clear
    [ t.ids_mesh; t.ids_clients; t.ids_arr; t.ids_adv_trr; t.ids_adv_arr ];
  Hashtbl.reset t.sessions;
  Hashtbl.reset t.damping;
  Queue.clear t.inbox

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let best t p = match Rib.get t.loc_rib p with [] -> None | r :: _ -> Some r

(* LPM straight off the Loc-RIB trie — no separate FIB copy. *)
let lookup t addr =
  match Rib.longest_match t.loc_rib addr with
  | Some (p, r :: _) -> Some (p, r)
  | Some (_, []) | None -> None

let idle t = Queue.is_empty t.inbox && not t.process_scheduled

let recomputed_best t p =
  Option.map (fun (c : D.candidate) -> c.D.route)
    (D.best ~med_mode:t.env.config.med_mode (cands_of (collect_candidates t p)))

let best_exit t p =
  match best t p with
  | None -> None
  | Some r -> Config.router_of_loopback t.env.config (R.next_hop r)

let sum_tbl tbl = srctbl_fold (fun _ rib acc -> acc + Rib.entry_count rib) tbl 0

let rib_in_managed t =
  sum_tbl t.managed_trr + sum_tbl t.managed_arr + sum_tbl t.managed_rcp

let rib_in_unmanaged t =
  sum_tbl t.mesh_in + sum_tbl t.confed_in + sum_tbl t.from_trr
  + sum_tbl t.from_arr + sum_tbl t.from_rcp

let rib_in_entries t = rib_in_managed t + rib_in_unmanaged t

let rib_out_entries t =
  Rib.entry_count t.out_mesh + Rib.entry_count t.out_clients
  + Rib.entry_count t.out_arr + sum_tbl t.rcp_out

let rib_out_client_entries t =
  Rib.entry_count t.adv_mesh + Rib.entry_count t.adv_confed
  + Rib.entry_count t.adv_trr + Rib.entry_count t.adv_arr
  + Rib.entry_count t.adv_rcp

let loc_rib_entries t = Rib.entry_count t.loc_rib
let ebgp_entries t = Rib.entry_count t.ebgp_rib

let received_set t ~from p =
  let get tbl = match srctbl_find_opt tbl from with None -> [] | Some rib -> Rib.get rib p in
  get t.from_arr @ get t.from_trr @ get t.mesh_in @ get t.confed_in
  @ get t.from_rcp

let reflector_set t p = Rib.get t.out_arr p
let advertised_route t p =
  match Rib.get t.adv_arr p @ Rib.get t.adv_trr p @ Rib.get t.adv_mesh p with
  | [] -> None
  | r :: _ -> Some r

let known_prefixes t =
  let acc = ref [] in
  iter_known t (fun p -> acc := p :: !acc);
  List.sort Prefix.compare !acc

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)

type rib_dump = (Prefix.t * R.t list) list

type session_state = {
  ss_peer : int;
  ss_mrai_until : Time.t;
  ss_pending : Proto.item list;
  ss_flush_scheduled : bool;
}

type damp_state = {
  ds_key : int * int;  (* (prefix key, path id) *)
  ds_penalty : float;
  ds_stamp : Time.t;
  ds_held : R.t option;
  ds_neighbor : Ipv4.t;
  ds_wake : Time.t;
}

type state = {
  st_ribs : rib_dump array;
  st_peer_tables : (int * rib_dump) list array;
  st_path_ids : Path_id.dump array;
  st_ebgp_neighbors : ((int * int) * Ipv4.t) list;
  st_inbox : input list;
  st_process_scheduled : bool;
  st_outgoing : (int * Proto.item list) list;
  st_sessions : session_state list;
  st_damping : damp_state list;
  st_counters : Counters.t;
  st_rejected_loops : int;
  st_up : bool;
}

(* Fixed slot orders — the codec stores these arrays positionally, so
   the orders are part of the snapshot format (bump the format version
   when changing them). *)
let rib_slots t =
  [| t.ebgp_rib; t.local_rib; t.loc_rib; t.adv_mesh; t.adv_confed; t.adv_rcp;
     t.adv_trr; t.adv_arr; t.out_mesh; t.out_clients; t.out_arr |]

let peer_table_slots t =
  [| t.managed_trr; t.managed_arr; t.mesh_in; t.confed_in; t.managed_rcp;
     t.from_rcp; t.rcp_out; t.from_trr; t.from_arr |]

let path_id_slots t =
  [| t.ids_mesh; t.ids_clients; t.ids_arr; t.ids_adv_trr; t.ids_adv_arr |]

let dump_rib rib =
  Rib.prefixes rib
  |> List.sort Prefix.compare
  |> List.map (fun p -> (p, Rib.get rib p))

let dump_state t =
  {
    st_ribs = Array.map dump_rib (rib_slots t);
    st_peer_tables =
      Array.map
        (fun tbl ->
          List.map (fun (src, rib) -> (src, dump_rib rib)) (sorted_tbl tbl))
        (peer_table_slots t);
    st_path_ids = Array.map Path_id.dump (path_id_slots t);
    st_ebgp_neighbors =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ebgp_neighbors []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    st_inbox = List.of_seq (Queue.to_seq t.inbox);
    st_process_scheduled = t.process_scheduled;
    st_outgoing =
      Hashtbl.fold (fun dst r acc -> (dst, List.rev !r) :: acc) t.outgoing []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    st_sessions =
      Hashtbl.fold
        (fun peer (s : session) acc ->
          {
            ss_peer = peer;
            ss_mrai_until = s.mrai_until;
            ss_pending =
              sort_items (Hashtbl.fold (fun _ it acc -> it :: acc) s.pending []);
            ss_flush_scheduled = s.flush_scheduled;
          }
          :: acc)
        t.sessions []
      |> List.sort (fun a b -> Int.compare a.ss_peer b.ss_peer);
    st_damping =
      Hashtbl.fold
        (fun key (e : damp_entry) acc ->
          {
            ds_key = key;
            ds_penalty = e.dp_penalty;
            ds_stamp = e.dp_stamp;
            ds_held = e.dp_held;
            ds_neighbor = e.dp_neighbor;
            ds_wake = e.dp_wake;
          }
          :: acc)
        t.damping []
      |> List.sort (fun a b -> compare a.ds_key b.ds_key);
    st_counters = Counters.copy t.counters;
    st_rejected_loops = t.rejected_loops;
    st_up = t.up;
  }

let load_state t st =
  let ribs = rib_slots t in
  let tables = peer_table_slots t in
  let ids = path_id_slots t in
  if
    Array.length st.st_ribs <> Array.length ribs
    || Array.length st.st_peer_tables <> Array.length tables
    || Array.length st.st_path_ids <> Array.length ids
  then invalid_arg "Router.load_state: slot count mismatch";
  (* Wipe everything, as a cold start would, then refill from the dump. *)
  Array.iter Rib.clear ribs;
  Array.iter srctbl_reset tables;
  Array.iter Path_id.clear ids;
  Hashtbl.reset t.ebgp_neighbors;
  Queue.clear t.inbox;
  Hashtbl.reset t.outgoing;
  Hashtbl.reset t.sessions;
  Hashtbl.reset t.damping;
  Array.iteri
    (fun i d -> List.iter (fun (p, rs) -> Rib.set ribs.(i) p rs) d)
    st.st_ribs;
  Array.iteri
    (fun i d ->
      List.iter
        (fun (src, rd) ->
          let rib = table_rib tables.(i) src in
          List.iter (fun (p, rs) -> Rib.set rib p rs) rd)
        d)
    st.st_peer_tables;
  Array.iteri (fun i d -> Path_id.load ids.(i) d) st.st_path_ids;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.ebgp_neighbors k v)
    st.st_ebgp_neighbors;
  List.iter (fun input -> Queue.add input t.inbox) st.st_inbox;
  t.process_scheduled <- st.st_process_scheduled;
  List.iter
    (fun (dst, items) -> Hashtbl.replace t.outgoing dst (ref (List.rev items)))
    st.st_outgoing;
  List.iter
    (fun ss ->
      let s =
        {
          mrai_until = ss.ss_mrai_until;
          pending = Hashtbl.create 8;
          flush_scheduled = ss.ss_flush_scheduled;
        }
      in
      List.iter
        (fun (((c, d) : Proto.item) as item) ->
          Hashtbl.replace s.pending
            (Proto.channel_tag c, Prefix.to_key d.Proto.prefix)
            item)
        ss.ss_pending;
      Hashtbl.add t.sessions ss.ss_peer s)
    st.st_sessions;
  List.iter
    (fun ds ->
      Hashtbl.replace t.damping ds.ds_key
        {
          dp_penalty = ds.ds_penalty;
          dp_stamp = ds.ds_stamp;
          dp_held = ds.ds_held;
          dp_neighbor = ds.ds_neighbor;
          dp_wake = ds.ds_wake;
        })
    st.st_damping;
  Counters.reset t.counters;
  Counters.add t.counters st.st_counters;
  t.rejected_loops <- st.st_rejected_loops;
  t.up <- st.st_up
