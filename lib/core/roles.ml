open Netaddr

type t = {
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

let none =
  { is_trr = false; is_client = true; my_cluster_ids = []; my_trrs = [];
    my_trr_clients = []; trr_mesh = []; tbrr_multipath = false;
    tbrr_best_external = false; arr_aps = []; abrr_arrs = [||]; partition = None;
    abrr_loop = Config.Reflected_bit; mesh_peers = []; confed_links = [];
    my_member_asn = None; is_rcp = false; rcps = []; rcp_clients = [] }

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

let derive (config : Config.t) id =
  match config.scheme with
  | Config.Full_mesh ->
    let mesh_peers =
      List.filter (fun x -> x <> id) (List.init config.n_routers Fun.id)
    in
    { none with mesh_peers }
  | Config.Tbrr s -> tbrr_roles config id s none
  | Config.Abrr s -> abrr_roles config id s none
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
    { none with mesh_peers; confed_links;
      my_member_asn = Some (Config.member_asn my_sub) }
  | Config.Rcp { rcps } ->
    let is_rcp = List.mem id rcps in
    let rcp_clients =
      if is_rcp then
        List.filter (fun x -> x <> id) (List.init config.n_routers Fun.id)
      else []
    in
    { none with is_rcp; rcps = List.filter (fun x -> x <> id) rcps;
      rcp_clients; is_client = not is_rcp }
  | Config.Dual { tbrr; abrr; accept = _ } ->
    abrr_roles config id abrr (tbrr_roles config id tbrr none)

(* ------------------------------------------------------------------ *)
(* Per-prefix reads                                                    *)

let rec in_any_ap partition p = function
  | [] -> false
  | ap :: aps -> Partition.prefix_in_ap partition ap p || in_any_ap partition p aps

let serves roles p =
  match roles.partition with
  | None -> false
  | Some partition -> in_any_ap partition p roles.arr_aps

let rec aps_holding partition p = function
  | [] -> []
  | ap :: aps ->
    if Partition.prefix_in_ap partition ap p then ap :: aps_holding partition p aps
    else aps_holding partition p aps

let arrs_of (arrs : int list array) partition p =
  dedup_ints (List.concat_map (fun ap -> arrs.(ap)) (Partition.aps_of_prefix partition p))
