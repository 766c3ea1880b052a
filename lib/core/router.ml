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

(* One dirty prefix's churn record for the incremental decision
   ("Incremental decision" below). *)
type churn = {
  mutable ch_full : bool;  (* structural event: always recompute *)
  mutable ch_planes : int;
  mutable ch_routes : R.t list;  (* routes added to / removed from tables *)
}

type t = {
  env : env;
  self : Ipv4.t;
  mutable roles : roles;
  ebgp_rib : Rib.t;
  ebgp_neighbors : (int * int, Ipv4.t) Hashtbl.t;
  local_rib : Rib.t;
  managed_trr : Adj_in.t;
  managed_arr : Adj_in.t;
  mesh_in : Adj_in.t;
  confed_in : Adj_in.t;
  managed_rcp : Adj_in.t;  (* RCP node: routes per client *)
  from_rcp : Adj_in.t;
  rcp_out : (int, Rib.t) Hashtbl.t;  (* RCP node: per-client Adj-RIB-Out *)
  from_trr : Adj_in.t;
  from_arr : Adj_in.t;
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
  uid : int;  (* process-wide serial number: the outbox's owner tag *)
  sessions : (int, session) Hashtbl.t;
  damping : (int * int, damp_entry) Hashtbl.t;
  dirty : churn Rib.Dirty.t;  (* [process_now]'s batch, empty between batches *)
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

(* Router ids repeat across networks, so the outbox tells routers apart
   by this serial number instead. *)
let next_uid = Atomic.make 0

let create env =
  {
    env;
    self = Config.loopback env.id;
    roles = derive_roles env.config env.id;
    ebgp_rib = Rib.create ();
    ebgp_neighbors = Hashtbl.create 16;
    local_rib = Rib.create ();
    managed_trr = Adj_in.create ();
    managed_arr = Adj_in.create ();
    mesh_in = Adj_in.create ();
    confed_in = Adj_in.create ();
    managed_rcp = Adj_in.create ();
    from_rcp = Adj_in.create ();
    rcp_out = Hashtbl.create 8;
    from_trr = Adj_in.create ();
    from_arr = Adj_in.create ();
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
    uid = Atomic.fetch_and_add next_uid 1;
    sessions = Hashtbl.create 16;
    damping = Hashtbl.create 16;
    dirty = Rib.Dirty.create ();
    counters = Counters.create ();
    rejected_loops = 0;
    up = true;
  }

(* The eight Adj-RIB-In planes, in snapshot slot order ([rcp_out], an
   Adj-RIB-Out, sits between [from_rcp] and [from_trr] there). *)
let adj_in_planes t =
  [ t.managed_trr; t.managed_arr; t.mesh_in; t.confed_in; t.managed_rcp;
    t.from_rcp; t.from_trr; t.from_arr ]

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

let best t p = match Rib.get t.loc_rib p with [] -> None | r :: _ -> Some r

(* An RCP node's Adj-RIB-Out toward [client], created on first use. *)
let rcp_out_rib t client =
  match Hashtbl.find t.rcp_out client with
  | rib -> rib
  | exception Not_found ->
    let rib = Rib.create () in
    Hashtbl.add t.rcp_out client rib;
    rib

(* ------------------------------------------------------------------ *)
(* Candidate loading                                                   *)

(* Every decision pushes its candidates straight into the kernel's
   scratch ([Decision.Scratch]) with the source router ([-1] for eBGP
   and local routes) and a tag. Slot order is part of the outcome:
   survivors keep it, and it decides path-id assignment of derived sets
   and ties after step 8. Each source is pushed newest-first — its
   routes in reverse stored order, an Adj-RIB-In plane's sources in
   descending order — and the sources of one decision in a fixed order. *)

module S = D.Scratch

(* The TRR mesh advertises only routes from clients, eBGP or local
   origination (Table 1). *)
let tag_other = 0
let tag_clientside = 1

let med_mode t = t.env.config.med_mode

let originated_by addr (r : R.t) =
  match R.originator_id r with Some o -> Ipv4.equal o addr | None -> false

(* An iBGP-learned route from [src]: not a candidate while its next hop
   is unreachable. *)
let push_ibgp t s ~learned ~tag src (route : R.t) =
  let cost = t.env.igp_cost (R.next_hop route) in
  if cost <> Igp.Spf.unreachable then begin
    let peer = Config.loopback src in
    S.push s route learned ~peer_id:peer ~peer_addr:peer ~igp_cost:cost ~src ~tag
  end

let rec push_ibgp_rev t s ~learned ~tag src = function
  | [] -> ()
  | r :: rs ->
    push_ibgp_rev t s ~learned ~tag src rs;
    push_ibgp t s ~learned ~tag src r

(* One descent into the plane, then its sources from the highest. *)
let push_table t s ~learned ~tag tbl p =
  let n = Adj_in.node tbl p in
  for i = Adj_in.width n - 1 downto 0 do
    push_ibgp_rev t s ~learned ~tag (Adj_in.src n i) (Adj_in.routes n i)
  done

let ebgp_neighbor t key (route : R.t) =
  match Hashtbl.find t.ebgp_neighbors (key, route.R.path_id) with
  | n -> n
  | exception Not_found -> R.next_hop route

let rec push_ebgp_rev t s key = function
  | [] -> ()
  | (route : R.t) :: rs ->
    push_ebgp_rev t s key rs;
    let n = ebgp_neighbor t key route in
    S.push s route D.Ebgp ~peer_id:n ~peer_addr:n ~igp_cost:0 ~src:(-1)
      ~tag:tag_clientside

let rec push_local_rev t s = function
  | [] -> ()
  | route :: rs ->
    push_local_rev t s rs;
    S.push s route D.Local ~peer_id:t.self ~peer_addr:t.self ~igp_cost:0
      ~src:(-1) ~tag:tag_clientside

(* The routes every decision plane sees, pushed last: local, then eBGP. *)
let push_own_routes t s p =
  push_local_rev t s (Rib.get t.local_rib p);
  push_ebgp_rev t s (Prefix.to_key p) (Rib.get t.ebgp_rib p)

(* An ARR's client function reads its own reflected set directly (the
   internal role passing of §2.1), skipping routes it injected itself. *)
let rec push_own_arr_rev t s = function
  | [] -> ()
  | route :: rs ->
    push_own_arr_rev t s rs;
    if not (originated_by t.self route) then
      push_ibgp t s ~learned:D.Ibgp ~tag:tag_other t.env.id route

let rec in_any_ap partition p = function
  | [] -> false
  | ap :: aps -> Partition.prefix_in_ap partition ap p || in_any_ap partition p aps

let serves_with roles p =
  match roles.partition with
  | None -> false
  | Some partition -> in_any_ap partition p roles.arr_aps

let serves_prefix t p = serves_with t.roles p

(* ABRR plane: the own reflected set, then routes from ARRs for other
   APs. *)
let push_abrr t s p =
  if serves_prefix t p then push_own_arr_rev t s (Rib.get t.out_arr p);
  push_table t s ~learned:D.Ibgp ~tag:tag_other t.from_arr p

(* TRR-plane candidates, depending on role. *)
let push_tbrr t s p =
  if t.roles.my_trrs <> [] then
    push_table t s ~learned:D.Ibgp ~tag:tag_other t.from_trr p;
  if t.roles.is_trr then begin
    push_table t s ~learned:D.Ibgp ~tag:tag_other t.mesh_in p;
    push_table t s ~learned:D.Ibgp ~tag:tag_clientside t.managed_trr p
  end

(* The client function's candidate set: everything this router may
   choose from. *)
let load_client t s p =
  S.clear s;
  (match t.env.config.scheme with
  | Config.Full_mesh -> push_table t s ~learned:D.Ibgp ~tag:tag_other t.mesh_in p
  | Config.Confed _ ->
    push_table t s ~learned:D.Confed_ebgp ~tag:tag_other t.confed_in p;
    push_table t s ~learned:D.Ibgp ~tag:tag_other t.mesh_in p
  | Config.Rcp _ -> push_table t s ~learned:D.Ibgp ~tag:tag_other t.from_rcp p
  | Config.Tbrr _ -> push_tbrr t s p
  | Config.Abrr _ -> push_abrr t s p
  | Config.Dual { abrr; accept; _ } -> (
    let ap = Partition.ap_of_addr abrr.partition (Prefix.first p) in
    match accept.(ap) with
    | Config.Accept_abrr -> push_abrr t s p
    | Config.Accept_tbrr -> push_tbrr t s p));
  push_own_routes t s p

(* A TRR's reflection set: the mesh (when [with_mesh]), then the
   clientside sources. *)
let load_trr t s p ~with_mesh =
  S.clear s;
  if with_mesh then push_table t s ~learned:D.Ibgp ~tag:tag_other t.mesh_in p;
  push_table t s ~learned:D.Ibgp ~tag:tag_clientside t.managed_trr p;
  push_own_routes t s p

(* ------------------------------------------------------------------ *)
(* Output plumbing                                                     *)

(* The domain's outbox (DESIGN.md, "Fan-out"). Between an entry point's
   first [enqueue] and its closing [flush_outgoing] one router fills it,
   so it is empty at every event boundary. Each destination's items are
   consed onto its list, newest first; a destination's first item also
   pushes it on the [touched] stack. [owner] is the [uid] of the router
   filling it: entries an exception left behind are dropped when another
   router claims the outbox, never sent under that router's id. Like
   [Decision.Scratch] and [Wire.Sizer] it lives in domain-local storage. *)
module Outbox = struct
  type t = {
    mutable owner : int;  (* uid of the filling router, -1: none *)
    mutable lists : Proto.item list array;  (* by destination, newest first *)
    mutable touched : int array;  (* as long as [lists] *)
    mutable n_touched : int;
  }

  let key =
    Domain.DLS.new_key (fun () ->
        {
          owner = -1;
          lists = [||];
          touched = [||];
          n_touched = 0;
        })

  let get () = Domain.DLS.get key

  let clear ob =
    for k = 0 to ob.n_touched - 1 do
      ob.lists.(ob.touched.(k)) <- []
    done;
    ob.n_touched <- 0;
    ob.owner <- -1

  let grow ob dst =
    let n = max (dst + 1) (2 * Array.length ob.lists) in
    let lists = Array.make n [] in
    Array.blit ob.lists 0 lists 0 (Array.length ob.lists);
    let touched = Array.make n 0 in
    Array.blit ob.touched 0 touched 0 ob.n_touched;
    ob.lists <- lists;
    ob.touched <- touched

  (* Insertion sort: reflect targets are enqueued in ascending id order,
     so the stack is nearly sorted already. *)
  let sort_touched ob =
    let a = ob.touched in
    for i = 1 to ob.n_touched - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
end

let enqueue t dst item =
  let ob = Outbox.get () in
  if ob.owner <> t.uid then begin
    Outbox.clear ob;
    ob.owner <- t.uid
  end;
  if dst >= Array.length ob.lists then Outbox.grow ob dst;
  match ob.lists.(dst) with
  | [] ->
    ob.touched.(ob.n_touched) <- dst;
    ob.n_touched <- ob.n_touched + 1;
    ob.lists.(dst) <- [ item ]
  | items -> ob.lists.(dst) <- item :: items

let session t dst =
  match Hashtbl.find t.sessions dst with
  | s -> s
  | exception Not_found ->
    let s = { mrai_until = Time.zero; pending = Hashtbl.create 8; flush_scheduled = false } in
    Hashtbl.add t.sessions dst s;
    s

let sort_items = function
  | ([] | [ _ ]) as items -> items  (* [List.sort] would build its closures *)
  | items ->
    List.sort
      (fun ((c1, d1) : Proto.item) (c2, d2) ->
        match Int.compare (Proto.channel_tag c1) (Proto.channel_tag c2) with
        | 0 -> Prefix.compare d1.Proto.prefix d2.Proto.prefix
        | c -> c)
      items

(* Count and size the items in one pass: the sizer sees exactly the
   deltas of [Proto.wire_size (List.map snd items)]. *)
let rec count_and_size (c : Counters.t) sizer = function
  | [] -> ()
  | ((_, d) : Proto.item) :: items ->
    c.updates_transmitted <- c.updates_transmitted + 1;
    if Proto.is_withdraw d then
      c.withdrawals_transmitted <- c.withdrawals_transmitted + 1;
    Proto.size_delta sizer d;
    count_and_size c sizer items

let transmit_now t dst (s : session) items =
  let items = sort_items items in
  let sizer = Bgp.Wire.Sizer.create ~add_paths:(Config.add_paths t.env.config) in
  count_and_size t.counters sizer items;
  Bgp.Wire.Sizer.finish sizer;
  let bytes = Bgp.Wire.Sizer.bytes sizer and msgs = Bgp.Wire.Sizer.msgs sizer in
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

(* Hand each destination its items: destinations in ascending id
   order, each one's items in enqueue order ([transmit_now] then sorts
   them with [sort_items]). *)
let send_touched t (ob : Outbox.t) =
  for k = 0 to ob.n_touched - 1 do
    let dst = ob.touched.(k) in
    let items = ob.lists.(dst) in
    ob.lists.(dst) <- [];
    send t dst (match items with [ _ ] -> items | _ -> List.rev items)
  done

let flush_outgoing t =
  let ob = Outbox.get () in
  if ob.owner = t.uid then begin
    Outbox.sort_touched ob;
    (match send_touched t ob with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Outbox.clear ob;
      Printexc.raise_with_backtrace e bt);
    Outbox.clear ob
  end

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

(* A TRR's advertisement of slot [i]: iBGP-learned routes are
   reflected, other-learned ones advertised as its own. *)
let derive_reflected t s i =
  match S.learned s i with
  | D.Ibgp -> derive_trr_reflect t (S.src s i) (S.route s i)
  | D.Ebgp | D.Local | D.Confed_ebgp -> derive_own t (S.route s i)

(* The survivors from the [k]-th on, as a TRR advertises them. *)
let rec reflected_survivors t s k =
  if k >= S.survivors s then []
  else
    let d = derive_reflected t s (S.survivor s k) in
    d :: reflected_survivors t s (k + 1)

(* Assign stable ids to a derived set and report whether it changed. *)
let assign_set ids p derived =
  match (Path_id.current ids p, derived) with
  | [], [] -> ([], [], false)
  | previous, _ ->
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
(* Adj-RIB-Out writer                                                  *)

(* Every per-plane Adj-RIB-Out change goes through here (DESIGN.md,
   "Implementation decisions" 5): store the new route set, count one
   generated update and enqueue the change toward each target, in the
   order [targets] iterates them. The delta is built once and shared
   (deltas are immutable), and so is its item: every target that gets
   the shared delta gets the same physical item. [per_target]
   substitutes a copy only for a target that must see something else. *)
let write_out t ~rib ~channel ~targets ~per_target p routes withdrawn_ids =
  rib_set t rib p routes;
  t.counters.updates_generated <- t.counters.updates_generated + 1;
  let delta = { Proto.prefix = p; routes; withdrawn_ids } in
  let item = (channel, delta) in
  targets (fun dst ->
      let d = per_target dst delta in
      enqueue t dst (if d == delta then item else (channel, d)))

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

(* Loop prevention and AS-level selection do not consult the IGP, so the
   managed RIB is loaded whole; the tag records whether the next hop is
   reachable. *)
let rec push_managed_rev t s src = function
  | [] -> ()
  | (route : R.t) :: rs ->
    push_managed_rev t s src rs;
    let cost = t.env.igp_cost (R.next_hop route) in
    let peer = Config.loopback src in
    S.push s route D.Ibgp ~peer_id:peer ~peer_addr:peer ~igp_cost:cost ~src
      ~tag:(if cost = Igp.Spf.unreachable then 0 else 1)

(* The reflected routes of the survivors from the [k]-th on whose tag is
   [reachable]. *)
let rec reflected_set t s ~reachable k =
  if k >= S.survivors s then []
  else
    let i = S.survivor s k in
    if S.tag s i = reachable then
      let d = derive_arr_reflect t (S.src s i) (S.route s i) in
      d :: reflected_set t s ~reachable (k + 1)
    else reflected_set t s ~reachable (k + 1)

let rec aps_serving partition p = function
  | [] -> []
  | ap :: aps ->
    if Partition.prefix_in_ap partition ap p then ap :: aps_serving partition p aps
    else aps_serving partition p aps

let recompute_arr t p =
  match t.roles.partition with
  | None -> ()
  | Some partition ->
    if in_any_ap partition p t.roles.arr_aps then begin
      let s = S.get () in
      S.clear s;
      let n = Adj_in.node t.managed_arr p in
      for i = Adj_in.width n - 1 downto 0 do
        push_managed_rev t s (Adj_in.src n i) (Adj_in.routes n i)
      done;
      S.run ~med_mode:(med_mode t) s;
      (* Survivors with an unreachable next hop come first, then the
         reachable ones, each in slot order: the set's order decides
         its path-id assignment. *)
      let derived =
        let reachable = reflected_set t s ~reachable:1 0 in
        reflected_set t s ~reachable:0 0 @ reachable
      in
      export_set t ~rib:t.out_arr ~ids:t.ids_arr ~channel:Proto.From_arr
        ~targets:(fun f ->
          iter_reflect_targets t.env.config t.roles.abrr_arrs
            ~aps:(aps_serving partition p t.roles.arr_aps) f)
        p derived
    end

(* ------------------------------------------------------------------ *)
(* TRR reflection                                                      *)

(* The derived route of the scratch's winner and the peer it came from. *)
let reflect_winner t s =
  let w = S.winner s in
  if w < 0 then (None, -1) else (Some (derive_reflected t s w), S.src s w)

let recompute_trr_single t p =
  let s = S.get () in
  load_trr t s p ~with_mesh:true;
  S.run ~med_mode:(med_mode t) s;
  let w = S.winner s in
  let best_clientside = w >= 0 && S.tag s w = tag_clientside in
  let derived, sender = reflect_winner t s in
  (* To clients: the best route, never back to the client it came from. *)
  export_single t ~rib:t.out_clients ~channel:Proto.From_trr
    ~targets:(to_each t.roles.my_trr_clients) ~sender p derived;
  (* To the TRR mesh: only routes from clients / eBGP / local (Table 1).
     With best-external, the best client-side route is advertised even
     when the overall best was learned from the mesh. *)
  let mesh_desired, mesh_sender =
    if best_clientside then (derived, sender)
    else if t.roles.tbrr_best_external then begin
      load_trr t s p ~with_mesh:false;
      S.run ~med_mode:(med_mode t) s;
      reflect_winner t s
    end
    else (None, -1)
  in
  export_single t ~rib:t.out_mesh ~channel:Proto.Mesh
    ~targets:(to_each t.roles.trr_mesh) ~sender:mesh_sender p mesh_desired

let recompute_trr_multi t p =
  let s = S.get () in
  let export ~with_mesh ~rib ~ids ~channel ~targets =
    load_trr t s p ~with_mesh;
    S.run ~med_mode:(med_mode t) s;
    export_set t ~rib ~ids ~channel ~targets:(to_each targets) p
      (reflected_survivors t s 0)
  in
  export ~with_mesh:true ~rib:t.out_clients ~ids:t.ids_clients
    ~channel:Proto.From_trr ~targets:t.roles.my_trr_clients;
  export ~with_mesh:false ~rib:t.out_mesh ~ids:t.ids_mesh ~channel:Proto.Mesh
    ~targets:t.roles.trr_mesh

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
   Appendix A.1. Read from the client decision's survivors, from the
   [k]-th on. *)
let rec own_survivors t s k =
  if k >= S.survivors s then []
  else
    let i = S.survivor s k in
    match S.learned s i with
    | D.Ebgp | D.Local ->
      let d = derive_own t (S.route s i) in
      d :: own_survivors t s (k + 1)
    | D.Ibgp | D.Confed_ebgp -> own_survivors t s (k + 1)

(* The client's own advertisement of the winner: only an eBGP or local
   winner is advertised. *)
let own_winner t s =
  let w = S.winner s in
  if w < 0 then None
  else
    match S.learned s w with
    | D.Ebgp | D.Local -> Some (derive_own t (S.route s w))
    | D.Ibgp | D.Confed_ebgp -> None

let arr_targets t partition p f =
  let aps = Partition.aps_of_prefix partition p in
  to_each (dedup_ints (List.concat_map (fun ap -> t.roles.abrr_arrs.(ap)) aps)) f

let client_export t s p =
  if t.roles.is_client then begin
    (match t.env.config.scheme with
    | Config.Full_mesh ->
      export_single t ~rib:t.adv_mesh ~channel:Proto.Mesh
        ~targets:(to_each t.roles.mesh_peers) p (own_winner t s)
    | Config.Tbrr _ | Config.Abrr _ | Config.Confed _ | Config.Rcp _
    | Config.Dual _ -> ());
    if tbrr_active t && t.roles.my_trrs <> [] then begin
      let targets = to_each t.roles.my_trrs in
      if t.roles.tbrr_multipath then
        export_set t ~rib:t.adv_trr ~ids:t.ids_adv_trr ~channel:Proto.To_trr
          ~targets p (own_survivors t s 0)
      else
        export_single t ~rib:t.adv_trr ~channel:Proto.To_trr ~targets p
          (own_winner t s)
    end;
    if abrr_active t then begin
      match t.roles.partition with
      | None -> ()
      | Some partition ->
        export_set t ~rib:t.adv_arr ~ids:t.ids_adv_arr ~channel:Proto.To_arr
          ~targets:(arr_targets t partition p) p (own_survivors t s 0)
    end
  end

(* Load and run the client decision, and store its winner in the
   Loc-RIB. The result stays in the scratch for the exports; returns
   whether the Loc-RIB changed. *)
let run_decision t s p =
  load_client t s p;
  S.run ~med_mode:(med_mode t) s;
  let w = S.winner s in
  let changed =
    match Rib.get t.loc_rib p with
    | [] -> w >= 0
    | [ old ] -> w < 0 || not (R.same_path old (S.route s w))
    | _ :: _ :: _ -> true
  in
  if changed then begin
    rib_set t t.loc_rib p (if w < 0 then [] else [ S.route s w ]);
    t.counters.last_change <- t.env.now ()
  end;
  changed

(* Confederation advertisement rules (RFC 5065): inside the sub-AS the
   best route is advertised iff it is not iBGP-learned (eBGP, local or
   confed-external); over confed-eBGP links the best route is always
   advertised (with our member ASN prepended to AS_CONFED_SEQUENCE),
   relying on receiver-side confed loop detection plus split-horizon
   withdrawal toward the sender. *)
let confed_export t s p =
  let my_asn =
    match t.roles.my_member_asn with Some a -> a | None -> Bgp.Asn.of_int 0
  in
  let w = S.winner s in
  let base () =
    let route = S.route s w in
    match S.learned s w with
    | D.Ebgp | D.Local -> derive_own t route
    | D.Confed_ebgp | D.Ibgp -> { (strip_reflection route) with R.path_id = 0 }
  in
  let mesh_desired =
    if w >= 0 && S.learned s w <> D.Ibgp then Some (base ()) else None
  in
  export_single t ~rib:t.adv_mesh ~channel:Proto.Mesh
    ~targets:(to_each t.roles.mesh_peers) p mesh_desired;
  let confed_desired =
    if w < 0 then None
    else
      let r = base () in
      Some (R.update ~as_path:(As_path.prepend_confed my_asn (R.as_path r)) r)
  in
  let sender = if w < 0 then -1 else S.src s w in
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
let rec push_rcp_rev t s client src = function
  | [] -> ()
  | (route : R.t) :: rs ->
    push_rcp_rev t s client src rs;
    let cost = t.env.igp_cost_from ~src:client (R.next_hop route) in
    if cost <> Igp.Spf.unreachable then begin
      let peer = Config.loopback src in
      S.push s route
        (if src = client then D.Ebgp else D.Ibgp)
        ~peer_id:peer ~peer_addr:peer ~igp_cost:cost ~src ~tag:tag_other
    end

let recompute_rcp t p =
  let n = Adj_in.node t.managed_rcp p in
  let s = S.get () in
  List.iter
    (fun client ->
      S.clear s;
      for i = Adj_in.width n - 1 downto 0 do
        push_rcp_rev t s client (Adj_in.src n i) (Adj_in.routes n i)
      done;
      S.run ~med_mode:(med_mode t) s;
      let w = S.winner s in
      let desired =
        if w >= 0 && S.src s w <> client then
          Some
            (R.update ~path_id:0
               ~originator_id:(Some (Config.loopback (S.src s w)))
               (S.route s w))
        else None (* the client's own route: nothing to teach *)
      in
      export_single t ~rib:(rcp_out_rib t client) ~channel:Proto.From_rcp
        ~targets:(fun f -> f client) p desired)
    t.roles.rcp_clients

let rcp_client_export t s p =
  if t.roles.is_client then
    export_set t ~rib:t.adv_rcp ~ids:t.ids_adv_arr ~channel:Proto.To_rcp
      ~targets:(to_each t.roles.rcps) p (own_survivors t s 0)

(* ARR reflection, then the client decision and the exports that read
   its result, then the TRR planes: each loads the scratch afresh, so
   the client's result is read out before the TRR planes (or a
   best-change hook) run. *)
let recompute t p =
  if abrr_active t then recompute_arr t p;
  if t.roles.is_rcp then recompute_rcp t p;
  let s = S.get () in
  let changed = run_decision t s p in
  if confed_active t then confed_export t s p
  else if rcp_active t then rcp_client_export t s p
  else client_export t s p;
  if changed then t.env.on_best_change p (best t p);
  if t.roles.is_trr && tbrr_active t then
    if t.roles.tbrr_multipath then recompute_trr_multi t p
    else recompute_trr_single t p

(* ------------------------------------------------------------------ *)
(* Input application                                                   *)

let reject_loop t = t.rejected_loops <- t.rejected_loops + 1

(* [List.exists] without a closure per route. *)
let rec any_in_cluster_list r = function
  | [] -> false
  | c :: cs -> R.in_cluster_list c r || any_in_cluster_list r cs

let has_my_cluster_id t (r : R.t) = any_in_cluster_list r t.roles.my_cluster_ids

(* [false] discards the route (loop prevention). *)
let filter_incoming t channel (r : R.t) =
  match channel with
  | Proto.Mesh | Proto.To_trr ->
    not (has_my_cluster_id t r || originated_by t.self r)
  | Proto.To_arr -> (
    match t.roles.abrr_loop with
    | Config.Reflected_bit -> not (R.is_reflected r)
    | Config.Cluster_list -> (
      match R.cluster_list r with [] -> true | _ :: _ -> false))
  | Proto.Confed -> (
    (* RFC 5065 loop detection: our member ASN in a confed segment *)
    match t.roles.my_member_asn with
    | Some asn -> not (As_path.confed_contains asn (R.as_path r))
    | None -> true)
  | Proto.To_rcp -> true
  | Proto.From_trr | Proto.From_arr | Proto.From_rcp ->
    not (originated_by t.self r)

let rec all_accepted t channel = function
  | [] -> true
  | r :: rs -> filter_incoming t channel r && all_accepted t channel rs

(* What a client stores from a reflector's advertised set (§3.4). Under
   always-compare MED one best route suffices for full-mesh-equivalent
   decisions. Under per-neighbour-AS MED the client must keep one route
   per neighbour AS (deterministic-MED-style storage): a discarded
   low-MED route could otherwise fail to eliminate the client's own
   eBGP route from the same AS (footnote 1 of the paper). A group whose
   next hops are all unreachable is stored whole. *)

let all_ases = min_int

let in_group key r = key = all_ases || D.neighbor_as_int r = key

let rec push_group t s src key = function
  | [] -> ()
  | r :: rs ->
    if in_group key r then push_ibgp t s ~learned:D.Ibgp ~tag:tag_other src r;
    push_group t s src key rs

(* The stored part of the group [key] of [routes]: its best route, or
   the whole group when none is reachable. *)
let pick_group t src key routes =
  let s = S.get () in
  S.clear s;
  push_group t s src key routes;
  S.run ~med_mode:(med_mode t) s;
  let w = S.winner s in
  if w >= 0 then [ S.route s w ]
  else if key = all_ases then routes
  else List.filter (in_group key) routes

(* Does one of the first [n] routes have neighbour-AS key [key]? *)
let rec key_before key n = function
  | r :: rs when n > 0 -> D.neighbor_as_int r = key || key_before key (n - 1) rs
  | _ -> false

(* One pick per neighbour AS, in order of first appearance; [rest] is
   [routes] from position [i] on. *)
let rec per_as_picks t src routes i = function
  | [] -> []
  | r :: rest ->
    let key = D.neighbor_as_int r in
    if key_before key i routes then per_as_picks t src routes (i + 1) rest
    else
      let pick = pick_group t src key routes in
      pick @ per_as_picks t src routes (i + 1) rest

let best_of_set t src routes =
  match routes with
  | [] | [ _ ] -> routes
  | _ -> (
    match med_mode t with
    | D.Always_compare -> pick_group t src all_ases routes
    | D.Per_neighbor_as -> per_as_picks t src routes 0 routes)

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
  Hashtbl.iter (fun _ r -> rib r) t.rcp_out;
  List.iter (Adj_in.iter_prefixes visit) (adj_in_planes t)

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
  c.ch_routes <-
    (match c.ch_routes with [] -> routes | rs -> List.rev_append routes rs)

let rec all_lose med_mode incumbent = function
  | [] -> true
  | r :: rs ->
    D.intrinsic_loses ~med_mode ~incumbent r && all_lose med_mode incumbent rs

(* Does every churned route strictly lose to the head of [rib]? *)
let loses_to t p (c : churn) rib =
  match Rib.get rib p with
  | [] -> false
  | incumbent :: _ -> all_lose (med_mode t) incumbent c.ch_routes

let needs (c : churn) plane = c.ch_planes land plane <> 0

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
    let trr = t.roles.is_trr && tbrr_active t in
    if
      (not (needs c plane_loc) || loses_to t p c t.loc_rib)
      && ((not trr) || not (needs c plane_trr) || loses_to t p c t.out_clients)
      && ((not trr)
         || not (t.roles.tbrr_multipath || t.roles.tbrr_best_external)
         || not (needs c plane_mesh)
         || loses_to t p c t.out_mesh)
      && (not (abrr_active t && needs c plane_arr && serves_prefix t p)
         || loses_to t p c t.out_arr)
    then `Delta
    else `Full
  end

(* Decide every dirty prefix exactly once, in prefix order. The counters
   are incremented identically under both engines; only whether the sound
   skips actually skip differs — and a naive recomputation of a skipped
   prefix changes no RIB, generates no update and stamps no change, so
   the two engines stay counter- and snapshot-identical. *)
let decide t ~incremental p c =
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
    if not incremental then recompute t p

let rec decide_all t ~incremental = function
  | [] -> ()
  | (p, c) :: rest ->
    decide t ~incremental p c;
    decide_all t ~incremental rest

let run_batch t dirty =
  decide_all t
    ~incremental:(t.env.config.decision = Config.Incremental)
    (Rib.Dirty.drain dirty)

(* Mark how one stored route set changed from [old] to [routes]. *)
let note_store dirty p channel old routes =
  if List.equal R.equal old routes then mark_noop dirty p
  else
    let planes = planes_of_channel channel in
    match (old, routes) with
    (* one-route fast paths: best-only stores are nearly always one route *)
    | [], _ -> mark_delta dirty p planes routes
    | _, [] -> mark_delta dirty p planes old
    | [ _ ], [ r ] -> mark_delta dirty p planes (r :: old)
    | _ ->
      let adds =
        List.filter (fun r -> not (List.exists (R.equal r) old)) routes
      in
      let rems =
        List.filter (fun r -> not (List.exists (R.equal r) routes)) old
      in
      (* Routes common to both sets must keep their relative order: the
         stored order feeds candidate loading and hence derived-set
         path-id assignment, so a reorder is not a pure add/remove. *)
      let common_old = List.filter (fun r -> List.exists (R.equal r) routes) old in
      let common_new = List.filter (fun r -> List.exists (R.equal r) old) routes in
      if adds = [] && rems = [] then mark_full dirty p
      else if List.equal R.equal common_old common_new then
        mark_delta dirty p planes (adds @ rems)
      else mark_full dirty p

let store t src channel p routes dirty tbl ~best_only =
  let routes =
    if best_only && not t.env.config.store_full_sets then best_of_set t src routes
    else routes
  in
  t.counters.rib_touches <- t.counters.rib_touches + 1;
  note_store dirty p channel (Adj_in.exchange tbl p src routes) routes

let apply_item t src ((channel, delta) : Proto.item) dirty =
  let p = delta.Proto.prefix in
  let keep =
    let routes = delta.Proto.routes in
    if all_accepted t channel routes then routes
    else begin
      reject_loop t;
      List.filter (filter_incoming t channel) routes
    end
  in
  match channel with
  | Proto.Mesh -> store t src channel p keep dirty t.mesh_in ~best_only:false
  | Proto.Confed -> store t src channel p keep dirty t.confed_in ~best_only:false
  | Proto.To_rcp ->
    if t.roles.is_rcp then
      store t src channel p keep dirty t.managed_rcp ~best_only:false
    else reject_loop t
  | Proto.From_rcp -> store t src channel p keep dirty t.from_rcp ~best_only:false
  | Proto.To_trr ->
    if t.roles.is_trr then
      store t src channel p keep dirty t.managed_trr ~best_only:false
    else reject_loop t
  | Proto.To_arr ->
    if t.roles.arr_aps <> [] && serves_prefix t p then
      store t src channel p keep dirty t.managed_arr ~best_only:false
    else reject_loop t
  | Proto.From_trr -> store t src channel p keep dirty t.from_trr ~best_only:true
  | Proto.From_arr -> store t src channel p keep dirty t.from_arr ~best_only:true

let rec apply_items t src dirty = function
  | [] -> ()
  | item :: items ->
    apply_item t src item dirty;
    apply_items t src dirty items

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

(* [prev :: tail] for the route [prev] of [routes] carrying [path_id],
   [tail] when there is none. *)
let rec cons_path_id path_id routes tail =
  match routes with
  | [] -> tail
  | (r : R.t) :: rs ->
    if r.R.path_id = path_id then r :: tail else cons_path_id path_id rs tail

let apply_input t input dirty =
  match input with
  | In_items { src; items } -> apply_items t src dirty items
  | In_ebgp { neighbor; route } ->
    let absorbed =
      match t.env.config.Config.damping with
      | Some params -> damp_announce t params ~neighbor route dirty
      | None -> false
    in
    if not absorbed then begin
      let p = route.R.prefix in
      let key = (Prefix.to_key p, route.R.path_id) in
      let old = Rib.get t.ebgp_rib p in
      let changed = Rib.upsert t.ebgp_rib route in
      let neighbor_changed =
        match Hashtbl.find t.ebgp_neighbors key with
        | n -> not (Ipv4.equal n neighbor)
        | exception Not_found -> false
      in
      Hashtbl.replace t.ebgp_neighbors key neighbor;
      (* Re-announcing the stored route verbatim is a decision no-op; a
         neighbour change with identical attributes still shifts the
         candidate's peer identity (steps 7-8), so it recomputes in full. *)
      if neighbor_changed then mark_full dirty p
      else if not changed then mark_noop dirty p
      else
        mark_delta dirty p planes_clientside
          (route :: cons_path_id route.R.path_id old [])
    end
  | In_ebgp_withdraw { neighbor; prefix; path_id } ->
    (match t.env.config.Config.damping with
    | Some params -> damp_withdraw t params ~neighbor ~prefix ~path_id
    | None -> ());
    let old = Rib.get t.ebgp_rib prefix in
    if Rib.drop t.ebgp_rib prefix ~path_id then begin
      Hashtbl.remove t.ebgp_neighbors (Prefix.to_key prefix, path_id);
      mark_delta dirty prefix planes_clientside (cons_path_id path_id old [])
    end
  | In_local route ->
    let p = route.R.prefix in
    let old = Rib.get t.local_rib p in
    if Rib.upsert t.local_rib route then
      mark_delta dirty p planes_clientside
        (route :: cons_path_id route.R.path_id old [])
    else mark_noop dirty p
  | In_local_withdraw { prefix; path_id } ->
    let old = Rib.get t.local_rib prefix in
    if Rib.drop t.local_rib prefix ~path_id then
      mark_delta dirty prefix planes_clientside (cons_path_id path_id old [])
  | In_redecide_all -> iter_known t (fun p -> mark_full dirty p)

let rec drain_inbox t dirty =
  if not (Queue.is_empty t.inbox) then begin
    apply_input t (Queue.take t.inbox) dirty;
    drain_inbox t dirty
  end

let process_now t =
  t.process_scheduled <- false;
  if not t.up then Queue.clear t.inbox
  else begin
    drain_inbox t t.dirty;
    damping_pass t t.dirty;
    run_batch t t.dirty;
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
      List.fold_left
        (fun n ((_, d) : Proto.item) -> if Proto.is_withdraw d then n + 1 else n)
        t.counters.withdrawals_received items;
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
    let dirty =
      List.concat_map (fun tbl -> Adj_in.drop_source tbl peer) (adj_in_planes t)
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
            enqueue t peer
              (channel, { Proto.prefix = p; routes; withdrawn_ids = [] }))
        rib
    in
    let always _ = true in
    if List.mem peer t.roles.mesh_peers then replay t.adv_mesh Proto.Mesh always;
    if List.mem peer t.roles.confed_links then
      replay t.adv_confed Proto.Confed always;
    if List.mem peer t.roles.rcps then replay t.adv_rcp Proto.To_rcp always;
    if t.roles.is_rcp then (
      match Hashtbl.find_opt t.rcp_out peer with
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
    Rib.iter (fun p _ -> note p) t.out_arr;
    Adj_in.iter_prefixes note t.managed_arr;
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
              enqueue t dst
                (Proto.From_arr,
                 { Proto.prefix = p; routes = []; withdrawn_ids = withdrawn }))
        end;
        if Rib.get t.out_arr p <> [] then rib_set t t.out_arr p [];
        (* one RIB touch per source cleared *)
        t.counters.rib_touches <-
          t.counters.rib_touches + Adj_in.clear_prefix t.managed_arr p;
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
                enqueue t dst
                  (Proto.To_arr, { Proto.prefix = p; routes; withdrawn_ids = [] }))
              added
          end)
        t.adv_arr
    | _ -> ());
    run_batch t dirty;
    flush_outgoing t
  end

let set_down t =
  t.up <- false;
  Queue.clear t.inbox

(* Cold start: all BGP state is lost (eBGP feeds must be re-injected by
   the caller, as a rebooted router would re-learn them). *)
let set_up_cold t =
  t.up <- true;
  Rib.clear t.ebgp_rib;
  Hashtbl.reset t.ebgp_neighbors;
  Rib.clear t.local_rib;
  List.iter Adj_in.clear (adj_in_planes t);
  Hashtbl.reset t.rcp_out;
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

(* LPM straight off the Loc-RIB trie — no separate FIB copy. *)
let lookup t addr =
  match Rib.longest_match t.loc_rib addr with
  | Some (p, r :: _) -> Some (p, r)
  | Some (_, []) | None -> None

let idle t = Queue.is_empty t.inbox && not t.process_scheduled

let recomputed_best t p =
  let s = S.get () in
  load_client t s p;
  S.run ~med_mode:(med_mode t) s;
  let w = S.winner s in
  if w < 0 then None else Some (S.route s w)

let best_exit t p =
  match best t p with
  | None -> None
  | Some r -> Config.router_of_loopback t.env.config (R.next_hop r)

let sum_tbl tbls = List.fold_left (fun acc tbl -> acc + Adj_in.entry_count tbl) 0 tbls
let rib_in_managed t = sum_tbl [ t.managed_trr; t.managed_arr; t.managed_rcp ]

let rib_in_unmanaged t =
  sum_tbl [ t.mesh_in; t.confed_in; t.from_trr; t.from_arr; t.from_rcp ]

let rib_in_entries t = rib_in_managed t + rib_in_unmanaged t

let rib_out_entries t =
  Rib.entry_count t.out_mesh + Rib.entry_count t.out_clients
  + Rib.entry_count t.out_arr
  + Hashtbl.fold (fun _ rib acc -> acc + Rib.entry_count rib) t.rcp_out 0

let rib_out_client_entries t =
  Rib.entry_count t.adv_mesh + Rib.entry_count t.adv_confed
  + Rib.entry_count t.adv_trr + Rib.entry_count t.adv_arr
  + Rib.entry_count t.adv_rcp

let loc_rib_entries t = Rib.entry_count t.loc_rib
let ebgp_entries t = Rib.entry_count t.ebgp_rib

let received_set t ~from p =
  let get tbl = Adj_in.get tbl p from in
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

(* [st_peer_tables]: the [adj_in_planes] with [rcp_out] at this slot. *)
let rcp_out_slot = 6
let peer_table_count = 9

let path_id_slots t =
  [| t.ids_mesh; t.ids_clients; t.ids_arr; t.ids_adv_trr; t.ids_adv_arr |]

(* [Rib.fold] runs in ascending prefix order already. *)
let dump_rib rib = List.rev (Rib.fold (fun p rs acc -> (p, rs) :: acc) rib [])

(* Clients ascending; a client with nothing advertised is left out, as
   an Adj-RIB-In plane leaves out a source with no routes. *)
let dump_rcp_out t =
  Hashtbl.fold
    (fun client rib acc ->
      if Rib.entry_count rib = 0 then acc else (client, dump_rib rib) :: acc)
    t.rcp_out []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let dump_peer_tables t =
  let planes = Array.of_list (List.map Adj_in.dump (adj_in_planes t)) in
  Array.init peer_table_count (fun i ->
      if i < rcp_out_slot then planes.(i)
      else if i = rcp_out_slot then dump_rcp_out t
      else planes.(i - 1))

let dump_state t =
  {
    st_ribs = Array.map dump_rib (rib_slots t);
    st_peer_tables = dump_peer_tables t;
    st_path_ids = Array.map Path_id.dump (path_id_slots t);
    st_ebgp_neighbors =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ebgp_neighbors []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    st_inbox = List.of_seq (Queue.to_seq t.inbox);
    st_process_scheduled = t.process_scheduled;
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
  let planes = Array.of_list (adj_in_planes t) in
  let ids = path_id_slots t in
  if
    Array.length st.st_ribs <> Array.length ribs
    || Array.length st.st_peer_tables <> peer_table_count
    || Array.length st.st_path_ids <> Array.length ids
  then invalid_arg "Router.load_state: slot count mismatch";
  (* Wipe everything, as a cold start would, then refill from the dump. *)
  Array.iter Rib.clear ribs;
  Array.iter Adj_in.clear planes;
  Hashtbl.reset t.rcp_out;
  Array.iter Path_id.clear ids;
  Hashtbl.reset t.ebgp_neighbors;
  Queue.clear t.inbox;
  Hashtbl.reset t.sessions;
  Hashtbl.reset t.damping;
  Array.iteri
    (fun i d -> List.iter (fun (p, rs) -> Rib.set ribs.(i) p rs) d)
    st.st_ribs;
  Array.iteri
    (fun i d ->
      List.iter
        (fun (src, rd) ->
          if i = rcp_out_slot then begin
            if rd <> [] then
              let rib = rcp_out_rib t src in
              List.iter (fun (p, rs) -> Rib.set rib p rs) rd
          end
          else
            let plane = planes.(if i < rcp_out_slot then i else i - 1) in
            List.iter (fun (p, rs) -> ignore (Adj_in.exchange plane p src rs)) rd)
        d)
    st.st_peer_tables;
  Array.iteri (fun i d -> Path_id.load ids.(i) d) st.st_path_ids;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.ebgp_neighbors k v)
    st.st_ebgp_neighbors;
  List.iter (fun input -> Queue.add input t.inbox) st.st_inbox;
  t.process_scheduled <- st.st_process_scheduled;
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
