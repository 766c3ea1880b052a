module R = Bgp.Route

(* The list itself when it holds no marker, so deriving from a route
   that was never reflected keeps its list physically. *)
let without_reflected ecs =
  if List.exists Bgp.Ext_community.is_reflected ecs then
    List.filter (fun e -> not (Bgp.Ext_community.is_reflected e)) ecs
  else ecs

(* [r] with new reflection attributes: [R.derive], with the fields no
   derivation changes read off [r]. *)
let reflected (r : R.t) ~path_id ~originator_id ~cluster_list ~ext_communities =
  R.derive ~path_id ~origin:(R.origin r) ~as_path:(R.as_path r) ~next_hop:(R.next_hop r)
    ~med:(R.med r) ~local_pref:(R.local_pref r) ~originator_id ~cluster_list
    ~ext_communities r

let stripped (r : R.t) =
  reflected r ~path_id:0 ~originator_id:None ~cluster_list:[]
    ~ext_communities:(without_reflected (R.ext_communities r))

let own ~self (r : R.t) =
  R.derive ~path_id:0 ~origin:(R.origin r) ~as_path:(R.as_path r) ~next_hop:self
    ~med:(R.med r) ~local_pref:(R.local_pref r) ~originator_id:None ~cluster_list:[]
    ~ext_communities:(without_reflected (R.ext_communities r))
    r

(* RFC 4456: the ORIGINATOR_ID a reflector sets, unless one is set. *)
let originator ~src (r : R.t) =
  match R.originator_id r with
  | Some _ as o -> o
  | None -> Some (Config.loopback src)

let trr_reflect (roles : Roles.t) ~self ~src (r : R.t) =
  let cluster = match roles.my_cluster_ids with c :: _ -> c | [] -> self in
  reflected r ~path_id:0 ~originator_id:(originator ~src r)
    ~cluster_list:(cluster :: R.cluster_list r) ~ext_communities:(R.ext_communities r)

let arr_reflect (roles : Roles.t) ~self ~src (r : R.t) =
  let originator_id = originator ~src r and path_id = r.R.path_id in
  match roles.abrr_loop with
  | Config.Reflected_bit ->
    let ecs = R.ext_communities r in
    reflected r ~path_id ~originator_id ~cluster_list:(R.cluster_list r)
      ~ext_communities:
        (if R.is_reflected r then ecs else Bgp.Ext_community.reflected :: ecs)
  | Config.Cluster_list ->
    reflected r ~path_id ~originator_id ~cluster_list:(self :: R.cluster_list r)
      ~ext_communities:(R.ext_communities r)
