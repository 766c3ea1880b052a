module R = Bgp.Route

(* The list itself when it holds no marker, so deriving from a route
   that was never reflected keeps its list physically. *)
let without_reflected ecs =
  if List.exists Bgp.Ext_community.is_reflected ecs then
    List.filter (fun e -> not (Bgp.Ext_community.is_reflected e)) ecs
  else ecs

let stripped (r : R.t) =
  R.update ~path_id:0 ~originator_id:None ~cluster_list:[]
    ~ext_communities:(without_reflected (R.ext_communities r))
    r

let own ~self (r : R.t) =
  R.update ~path_id:0 ~next_hop:self ~originator_id:None ~cluster_list:[]
    ~ext_communities:(without_reflected (R.ext_communities r))
    r

(* RFC 4456: the ORIGINATOR_ID a reflector sets, unless one is set. *)
let originator ~src (r : R.t) =
  match R.originator_id r with
  | Some _ as o -> o
  | None -> Some (Config.loopback src)

let trr_reflect (roles : Roles.t) ~self ~src (r : R.t) =
  let cluster = match roles.my_cluster_ids with c :: _ -> c | [] -> self in
  R.update ~path_id:0 ~originator_id:(originator ~src r)
    ~cluster_list:(cluster :: R.cluster_list r)
    r

let arr_reflect (roles : Roles.t) ~self ~src (r : R.t) =
  let originator_id = originator ~src r in
  match roles.abrr_loop with
  | Config.Reflected_bit ->
    let ecs = R.ext_communities r in
    R.update ~originator_id
      ~ext_communities:
        (if R.is_reflected r then ecs else Bgp.Ext_community.reflected :: ecs)
      r
  | Config.Cluster_list ->
    R.update ~originator_id ~cluster_list:(self :: R.cluster_list r) r
