open Netaddr
module Config = Abrr_core.Config
module Partition = Abrr_core.Partition
module Roles = Abrr_core.Roles
module Derive = Abrr_core.Derive
module Graph = Igp.Graph
module Spf = Igp.Spf
module As_path = Bgp.As_path
module D = Bgp.Decision
module R = Bgp.Route
module O = Oscillation

type injection = O.injection
type workload = injection list

type verdict =
  | Converged of { rounds : int }
  | Diverged of { period : int; start : int }
  | Unresolved of string
  | Unsupported of string

type stats = {
  node_evals : int;
  spf_rows : int;
  prefixes_solved : int;
  prefixes_reused : int;
}

let max_rounds = 512
let lb = Config.loopback
let dedup_ints = Roles.dedup_ints

(* ------------------------------------------------------------------ *)
(* Solver context: everything that is per-network, not per-prefix.      *)

type ctx = {
  cfg : Config.t;
  med : D.med_mode;
  roles : Roles.t array;
  live : bool array;
  dist : int array array;  (* over the live-masked topology *)
  inj : workload;  (* live-filtered *)
  mutable evals : int;
  mutable spf : int;
}

let owner_of ctx (route : R.t) =
  Config.router_of_loopback ctx.cfg (R.next_hop route)

(* Step-6 cost exactly as the simulator resolves it: IGP metric from [src]
   to the owner of the NEXT_HOP, 0 for unresolvable (external) hops. *)
let cost_from ctx src route =
  match owner_of ctx route with Some o -> ctx.dist.(src).(o) | None -> 0

let icand ctx r ~src route =
  D.candidate ~learned:D.Ibgp ~peer_id:(lb src) ~peer_addr:(lb src)
    ~igp_cost:(cost_from ctx r route) route

(* ------------------------------------------------------------------ *)
(* Route derivation: the simulator's own, through [Derive].            *)

let class_of = Derive.stripped
let derive_own i r = Derive.own ~self:(lb i) r

let derive_trr_reflect ctx i src r =
  Derive.trr_reflect ctx.roles.(i) ~self:(lb i) ~src r

let derive_arr_reflect ctx i src r =
  Derive.arr_reflect ctx.roles.(i) ~self:(lb i) ~src r

(* Receive-side loop filters (router.ml filter_incoming). *)

let mesh_ok ctx i (r : R.t) =
  (not
     (List.exists
        (fun c -> R.in_cluster_list c r)
        ctx.roles.(i).Roles.my_cluster_ids))
  && (R.originator_id r) <> Some (lb i)

let reflected_ok i (r : R.t) = (R.originator_id r) <> Some (lb i)

let to_arr_ok ctx i (r : R.t) =
  match ctx.roles.(i).Roles.abrr_loop with
  | Config.Reflected_bit -> not (R.is_reflected r)
  | Config.Cluster_list -> R.cluster_list r = []

let confed_ok ctx i (r : R.t) =
  match ctx.roles.(i).Roles.my_member_asn with
  | Some asn -> not (As_path.confed_contains asn (R.as_path r))
  | None -> true

(* ------------------------------------------------------------------ *)
(* Per-prefix context.                                                  *)

type pctx = {
  prefix : Prefix.t;
  own : D.candidate list array;  (* per router: normalized eBGP candidates *)
  cover_arrs : int list;  (* ABRR: ARRs serving a covering AP *)
  arr_targets_of : (int * int list) list;  (* per such ARR: reflect targets *)
}

let make_pctx ctx prefix =
  let n = ctx.cfg.Config.n_routers in
  let own = Array.make n [] in
  List.iter
    (fun (b, neighbor, (route : R.t)) ->
      if Prefix.compare route.R.prefix prefix = 0 then
        own.(b) <-
          own.(b)
          @ [
              D.candidate ~learned:D.Ebgp ~peer_id:neighbor ~peer_addr:neighbor
                ~igp_cost:0
                (O.normalize ~border:b route);
            ])
    ctx.inj;
  let cover_arrs, arr_targets_of =
    match ctx.cfg.Config.scheme with
    | Config.Abrr s ->
      let covering = Partition.aps_of_prefix s.Config.partition prefix in
      let cover_arrs = Roles.arrs_of s.Config.arrs s.Config.partition prefix in
      let arr_targets_of =
        List.map
          (fun a ->
            let aps = List.filter (fun ap -> List.mem a s.Config.arrs.(ap)) covering in
            (a, Roles.reflect_targets ctx.cfg s.Config.arrs ~aps))
          cover_arrs
      in
      (cover_arrs, arr_targets_of)
    | _ -> ([], [])
  in
  { prefix; own; cover_arrs; arr_targets_of }

(* ------------------------------------------------------------------ *)
(* Abstract node state: one router's adverts on every signaling channel
   (the union of the simulator's Adj-RIB-Outs for one prefix).           *)

type node = {
  mutable adv_mesh : R.t option;  (* full-mesh / confed-internal advert *)
  mutable adv_trr : R.t list;  (* client -> its TRRs *)
  mutable adv_arr : R.t list;  (* client -> the ARRs of covering APs *)
  mutable adv_rcp : R.t list;  (* client -> every RCP node *)
  mutable out_clients : R.t list;  (* TRR -> its clients *)
  mutable out_clients_src : int;  (* split-horizon sender (single-path) *)
  mutable out_mesh : R.t list;  (* TRR -> the TRR mesh *)
  mutable out_mesh_src : int;
  mutable out_arr : R.t list;  (* ARR -> the covering APs' targets *)
  mutable adv_confed : (R.t * int) option;  (* confed-eBGP export + its src *)
  rcp_out : R.t option array;  (* RCP -> per-client pick *)
}

let rcp_len ctx =
  match ctx.cfg.Config.scheme with
  | Config.Rcp _ -> ctx.cfg.Config.n_routers
  | _ -> 0

let fresh ctx =
  {
    adv_mesh = None;
    adv_trr = [];
    adv_arr = [];
    adv_rcp = [];
    out_clients = [];
    out_clients_src = -1;
    out_mesh = [];
    out_mesh_src = -1;
    out_arr = [];
    adv_confed = None;
    rcp_out = Array.make (rcp_len ctx) None;
  }

let copy_node nd = { nd with rcp_out = Array.copy nd.rcp_out }

let view nd =
  ( nd.adv_mesh,
    nd.adv_trr,
    nd.adv_arr,
    nd.adv_rcp,
    nd.out_clients,
    nd.out_clients_src,
    nd.out_mesh,
    nd.out_mesh_src,
    nd.out_arr,
    nd.adv_confed,
    Array.to_list nd.rcp_out )

let snapshot nodes = Array.to_list (Array.map view nodes)

(* ------------------------------------------------------------------ *)
(* Delivery: what router [r]'s decision process receives, computed
   receiver-side over the senders' current adverts, applying the exact
   split-horizon rules and loop filters of the simulator.               *)

type tag =
  | T_own
  | T_mesh
  | T_confed
  | T_from_rcp
  | T_managed_trr
  | T_from_trr
  | T_own_arr
  | T_from_arr

let clientside = function
  | T_own | T_managed_trr -> true
  | T_mesh | T_confed | T_from_rcp | T_from_trr | T_own_arr | T_from_arr ->
    false

let delivered_inputs ctx pctx nodes r =
  let roles = ctx.roles.(r) in
  let out = ref [] in
  let push tag src route = out := (tag, src, route) :: !out in
  (match ctx.cfg.Config.scheme with
  | Config.Full_mesh ->
    List.iter
      (fun s ->
        if ctx.live.(s) then
          match nodes.(s).adv_mesh with
          | Some route when mesh_ok ctx r route -> push T_mesh s route
          | _ -> ())
      roles.Roles.mesh_peers
  | Config.Confed _ ->
    List.iter
      (fun s ->
        if ctx.live.(s) then
          match nodes.(s).adv_mesh with
          | Some route when mesh_ok ctx r route -> push T_mesh s route
          | _ -> ())
      roles.Roles.mesh_peers;
    List.iter
      (fun s ->
        if ctx.live.(s) then
          match nodes.(s).adv_confed with
          | Some (route, src) when src <> r && confed_ok ctx r route ->
            push T_confed s route
          | _ -> ())
      roles.Roles.confed_links
  | Config.Rcp _ ->
    List.iter
      (fun z ->
        if ctx.live.(z) then
          match nodes.(z).rcp_out.(r) with
          | Some route when reflected_ok r route -> push T_from_rcp z route
          | _ -> ())
      roles.Roles.rcps
  | Config.Tbrr _ ->
    if roles.Roles.is_trr then begin
      List.iter
        (fun c ->
          if ctx.live.(c) then
            List.iter
              (fun route ->
                if mesh_ok ctx r route then push T_managed_trr c route)
              nodes.(c).adv_trr)
        roles.Roles.my_trr_clients;
      List.iter
        (fun s ->
          if ctx.live.(s) then begin
            let nd = nodes.(s) in
            let skip =
              (not roles.Roles.tbrr_multipath)
              && nd.out_mesh <> [] && nd.out_mesh_src = r
            in
            if not skip then
              List.iter
                (fun route -> if mesh_ok ctx r route then push T_mesh s route)
                nd.out_mesh
          end)
        roles.Roles.trr_mesh
    end;
    if roles.Roles.my_trrs <> [] then
      List.iter
        (fun tr ->
          if ctx.live.(tr) then begin
            let nd = nodes.(tr) in
            let skip =
              (not roles.Roles.tbrr_multipath)
              && nd.out_clients <> [] && nd.out_clients_src = r
            in
            if not skip then
              List.iter
                (fun route ->
                  if reflected_ok r route then push T_from_trr tr route)
                nd.out_clients
          end)
        roles.Roles.my_trrs
  | Config.Abrr _ ->
    List.iter
      (fun a ->
        if a <> r && ctx.live.(a) then
          match List.assoc_opt a pctx.arr_targets_of with
          | Some targets when List.mem r targets ->
            List.iter
              (fun route ->
                if reflected_ok r route then push T_from_arr a route)
              nodes.(a).out_arr
          | _ -> ())
      pctx.cover_arrs;
    (* Own reflected set: the §2.1 internal role passing. *)
    if List.mem_assoc r pctx.arr_targets_of then
      List.iter
        (fun (route : R.t) ->
          if reflected_ok r route then push T_own_arr r route)
        nodes.(r).out_arr
  | Config.Dual _ -> ());
  List.rev !out

(* Decision inputs (with the simulator's IGP-eligibility filter). *)
let decision_candidates ctx pctx r inputs =
  let own = List.map (fun c -> (c, -1, T_own)) pctx.own.(r) in
  let dels =
    List.filter_map
      (fun (tag, src, route) ->
        let c = icand ctx r ~src route in
        let c =
          if tag = T_confed then { c with D.learned = D.Confed_ebgp } else c
        in
        if c.D.igp_cost = Spf.unreachable then None else Some (c, src, tag))
      inputs
  in
  own @ dels

let winner_of ctx tagged =
  let cands = List.map (fun (c, _, _) -> c) tagged in
  match D.best ~med_mode:ctx.med cands with
  | None -> None
  | Some c -> (
    match
      List.find_map
        (fun ((c', _, _) as e) -> if c' == c then Some e else None)
        tagged
    with
    | Some e -> Some e
    | None -> Some (c, -1, T_own))

(* Table 1's "best routes" (plural): own AS-level survivors, exported on
   add-paths planes. *)
let own_survivors ctx r tagged =
  let cands = List.map (fun (c, _, _) -> c) tagged in
  let survivors = D.steps_1_to_4 ~med_mode:ctx.med cands in
  List.filter_map
    (fun (c : D.candidate) ->
      match c.D.learned with
      | D.Ebgp | D.Local -> Some (derive_own r c.D.route)
      | D.Ibgp | D.Confed_ebgp -> None)
    survivors

(* ------------------------------------------------------------------ *)
(* The transfer function: recompute one router's entire advert state
   from the current adverts of its peers. Mirrors router.ml's recompute
   order: ARR reflection -> RCP picks -> decision -> exports -> TRR.     *)

let eval ctx pctx nodes r =
  ctx.evals <- ctx.evals + 1;
  let old = view nodes.(r) in
  (* Compute into a fresh node while [nodes.(r)] still holds the previous
     state: self-channel reads (an ARR's own client advert, its own
     reflected set, an RCP node's own report) must see the {e previous}
     advert, exactly as the simulator's self-sends are delivered through
     the event queue one processing batch later. *)
  let nd = fresh ctx in
  if ctx.live.(r) then begin
    let roles = ctx.roles.(r) in
    let n = Array.length nodes in
    (* 1. ARR reflection: best AS-level routes over the managed RIB
       (loop-filtered client adverts, IGP eligibility not consulted). *)
    (match ctx.cfg.Config.scheme with
    | Config.Abrr _ when List.mem_assoc r pctx.arr_targets_of ->
      let tagged =
        List.concat
          (List.init n (fun c ->
               if ctx.live.(c) then
                 List.filter_map
                   (fun route ->
                     if to_arr_ok ctx r route then
                       Some (icand ctx r ~src:c route, c)
                     else None)
                   nodes.(c).adv_arr
               else []))
      in
      let survivors =
        D.steps_1_to_4 ~med_mode:ctx.med (List.map fst tagged)
      in
      nd.out_arr <-
        List.map
          (fun (c : D.candidate) ->
            let src =
              Option.value ~default:r
                (List.find_map
                   (fun (c', s) -> if c' == c then Some s else None)
                   tagged)
            in
            derive_arr_reflect ctx r src c.D.route)
          survivors
    | _ -> ());
    (* 2. RCP node: each client's best path from its own IGP vantage. *)
    (match ctx.cfg.Config.scheme with
    | Config.Rcp _ when roles.Roles.is_rcp ->
      let all =
        List.concat
          (List.init n (fun src ->
               if ctx.live.(src) then
                 List.map (fun route -> (src, route)) nodes.(src).adv_rcp
               else []))
      in
      List.iter
        (fun client ->
          if ctx.live.(client) then begin
            let cands =
              List.filter_map
                (fun (src, route) ->
                  let cost = cost_from ctx client route in
                  if cost = Spf.unreachable then None
                  else
                    Some
                      ( {
                          D.route;
                          learned = (if src = client then D.Ebgp else D.Ibgp);
                          peer_id = lb src;
                          peer_addr = lb src;
                          igp_cost = cost;
                        },
                        src ))
                all
            in
            match D.best ~med_mode:ctx.med (List.map fst cands) with
            | Some c -> (
              match
                List.find_map
                  (fun (c', s) -> if c' == c then Some s else None)
                  cands
              with
              | Some src when src <> client ->
                nd.rcp_out.(client) <-
                  Some
                    (R.update ~path_id:0 ~originator_id:(Some (lb src))
                       c.D.route)
              | _ -> ())
            | None -> ()
          end)
        roles.Roles.rcp_clients
    | _ -> ());
    (* 3. Decision. *)
    let inputs = delivered_inputs ctx pctx nodes r in
    let tagged = decision_candidates ctx pctx r inputs in
    let winner = winner_of ctx tagged in
    (* 4. Client / confed exports. *)
    (match ctx.cfg.Config.scheme with
    | Config.Full_mesh ->
      if roles.Roles.is_client then (
        match winner with
        | Some (c, _, _) when c.D.learned = D.Ebgp || c.D.learned = D.Local ->
          nd.adv_mesh <- Some (derive_own r c.D.route)
        | _ -> ())
    | Config.Tbrr _ ->
      if roles.Roles.is_client && roles.Roles.my_trrs <> [] then
        if roles.Roles.tbrr_multipath then
          nd.adv_trr <- own_survivors ctx r tagged
        else (
          match winner with
          | Some (c, _, _) when c.D.learned = D.Ebgp || c.D.learned = D.Local
            ->
            nd.adv_trr <- [ derive_own r c.D.route ]
          | _ -> ())
    | Config.Abrr _ ->
      if roles.Roles.is_client then nd.adv_arr <- own_survivors ctx r tagged
    | Config.Rcp _ ->
      if roles.Roles.is_client then nd.adv_rcp <- own_survivors ctx r tagged
    | Config.Confed _ ->
      let my_asn =
        match roles.Roles.my_member_asn with
        | Some a -> a
        | None -> Bgp.Asn.of_int 0
      in
      let derive_base (c : D.candidate) =
        match c.D.learned with
        | D.Ebgp | D.Local -> derive_own r c.D.route
        | D.Confed_ebgp | D.Ibgp -> Derive.stripped c.D.route
      in
      (match winner with
      | Some (c, _, _) when c.D.learned <> D.Ibgp ->
        nd.adv_mesh <- Some (derive_base c)
      | _ -> ());
      (match winner with
      | Some (c, src, _) ->
        let base = derive_base c in
        nd.adv_confed <-
          Some
            ( R.update
                ~as_path:(As_path.prepend_confed my_asn (R.as_path base))
                base,
              src )
      | None -> ())
    | Config.Dual _ -> ());
    (* 5. TRR reflection. *)
    match ctx.cfg.Config.scheme with
    | Config.Tbrr _ when roles.Roles.is_trr ->
      let trr_tagged =
        List.filter
          (fun (_, _, tag) ->
            match tag with T_own | T_managed_trr | T_mesh -> true | _ -> false)
          tagged
      in
      let derive ((c : D.candidate), src, _) =
        match c.D.learned with
        | D.Ibgp -> derive_trr_reflect ctx r src c.D.route
        | D.Ebgp | D.Local | D.Confed_ebgp -> derive_own r c.D.route
      in
      if roles.Roles.tbrr_multipath then begin
        let pick tg =
          let survivors =
            D.steps_1_to_4 ~med_mode:ctx.med (List.map (fun (c, _, _) -> c) tg)
          in
          List.filter_map
            (fun (s : D.candidate) ->
              List.find_map
                (fun ((c, _, _) as e) -> if c == s then Some e else None)
                tg)
            survivors
        in
        nd.out_clients <- List.map derive (pick trr_tagged);
        nd.out_mesh <-
          List.map derive
            (pick (List.filter (fun (_, _, tag) -> clientside tag) trr_tagged))
      end
      else begin
        let w = winner_of ctx trr_tagged in
        (match w with
        | Some ((_, src, _) as e) ->
          nd.out_clients <- [ derive e ];
          nd.out_clients_src <- src
        | None -> ());
        match w with
        | Some ((_, src, tag) as e) when clientside tag ->
          nd.out_mesh <- [ derive e ];
          nd.out_mesh_src <- src
        | Some _ when roles.Roles.tbrr_best_external -> (
          let ct =
            List.filter (fun (_, _, tag) -> clientside tag) trr_tagged
          in
          match winner_of ctx ct with
          | Some ((_, src', _) as e) ->
            nd.out_mesh <- [ derive e ];
            nd.out_mesh_src <- src'
          | None -> ())
        | _ -> ()
      end
    | _ -> ()
  end;
  nodes.(r) <- nd;
  view nd <> old

(* ------------------------------------------------------------------ *)
(* Fixpoint solvers.                                                    *)

let solve_prefix ctx pctx =
  let n = ctx.cfg.Config.n_routers in
  let nodes = Array.init n (fun _ -> fresh ctx) in
  let seen = Hashtbl.create 64 in
  let rec go round =
    let snap = snapshot nodes in
    match Hashtbl.find_opt seen snap with
    | Some first -> (nodes, Diverged { period = round - first; start = first })
    | None ->
      if round >= max_rounds then
        ( nodes,
          Unresolved (Printf.sprintf "no fixpoint within %d rounds" max_rounds)
        )
      else begin
        Hashtbl.add seen snap round;
        let changed = ref false in
        for r = 0 to n - 1 do
          if eval ctx pctx nodes r then changed := true
        done;
        if !changed then go (round + 1) else (nodes, Converged { rounds = round })
      end
  in
  go 0

(* Dataflow successors: who re-reads [r]'s adverts. *)
let successors ctx pctx r =
  let roles = ctx.roles.(r) in
  match ctx.cfg.Config.scheme with
  | Config.Full_mesh -> roles.Roles.mesh_peers
  | Config.Confed _ -> roles.Roles.mesh_peers @ roles.Roles.confed_links
  | Config.Tbrr _ ->
    (if roles.Roles.is_client && roles.Roles.my_trrs <> [] then
       roles.Roles.my_trrs
     else [])
    @
    if roles.Roles.is_trr then
      roles.Roles.my_trr_clients @ roles.Roles.trr_mesh
    else []
  | Config.Abrr _ ->
    (if roles.Roles.is_client then pctx.cover_arrs else [])
    @ (match List.assoc_opt r pctx.arr_targets_of with
      | Some ts -> ts
      | None -> [])
  | Config.Rcp _ ->
    (if roles.Roles.is_client then roles.Roles.rcps else [])
    @ (if roles.Roles.is_rcp then roles.Roles.rcp_clients else [])
  | Config.Dual _ -> []

(* Worklist restart from a dirty seed; [None] when it fails to settle. *)
let resolve_dirty ctx pctx nodes dirty =
  let n = Array.length nodes in
  let rec go round current =
    if round >= max_rounds then None
    else if not (Array.exists Fun.id current) then
      Some (Converged { rounds = round })
    else begin
      let next = Array.make n false in
      for r = 0 to n - 1 do
        if current.(r) && eval ctx pctx nodes r then
          List.iter
            (fun s -> if s >= 0 && s < n then next.(s) <- true)
            (successors ctx pctx r)
      done;
      go (round + 1) next
    end
  in
  go 0 dirty

let resolve_from ctx pctx prev_nodes seed =
  let n = Array.length prev_nodes in
  let nodes = Array.map copy_node prev_nodes in
  let dirty = Array.make n false in
  List.iter (fun r -> if r >= 0 && r < n then dirty.(r) <- true) seed;
  match resolve_dirty ctx pctx nodes dirty with
  | Some v -> (nodes, v)
  | None ->
    (* No fixpoint reachable from here by the worklist: re-solve from
       scratch so dispute cycles are detected and reported. *)
    solve_prefix ctx pctx

(* ------------------------------------------------------------------ *)
(* Per-prefix results.                                                  *)

type psol = {
  p_prefix : Prefix.t;
  p_verdict : verdict;
  p_nodes : node array;
  p_delivered : (int * R.t) list array;
  p_learnable : R.t list array;
  p_best : R.t option array;
  p_exits : int option array;
  p_ref_exits : int option array;
  p_ref_classes : R.t list;
}

type t = {
  t_ctx : ctx;
  t_workload : workload;
  t_psols : psol list;
  t_stats : stats;
}

let extract ctx pctx nodes =
  let n = ctx.cfg.Config.n_routers in
  let delivered = Array.make n [] in
  let learnable = Array.make n [] in
  let best = Array.make n None in
  let exits = Array.make n None in
  for r = 0 to n - 1 do
    if ctx.live.(r) then begin
      let inputs = delivered_inputs ctx pctx nodes r in
      delivered.(r) <-
        List.filter_map
          (fun (tag, src, route) ->
            match tag with
            | T_mesh | T_confed | T_from_rcp | T_from_trr | T_from_arr ->
              Some (src, route)
            | T_own | T_managed_trr | T_own_arr -> None)
          inputs;
      learnable.(r) <-
        List.sort_uniq R.compare
          (List.map
             (fun (c : D.candidate) -> class_of c.D.route)
             pctx.own.(r)
          @ List.map (fun (_, _, route) -> class_of route) inputs);
      let tagged = decision_candidates ctx pctx r inputs in
      match winner_of ctx tagged with
      | Some (c, _, _) ->
        best.(r) <- Some c.D.route;
        exits.(r) <-
          Some (match owner_of ctx c.D.route with Some o -> o | None -> r)
      | None -> ()
    end
  done;
  (delivered, learnable, best, exits)

(* Full-visibility reference: the best AS-level routes over all live
   border adverts, and the full-mesh egress assignment. *)
let reference ctx pctx =
  let prefix = pctx.prefix in
  let ref_exits =
    Deflection.full_mesh_exits ctx.cfg ~dist:ctx.dist ~prefix ctx.inj
  in
  let borders =
    dedup_ints
      (List.filter_map
         (fun (b, _, (rt : R.t)) ->
           if Prefix.compare rt.R.prefix prefix = 0 then Some b else None)
         ctx.inj)
  in
  let advert_cands =
    List.filter_map
      (fun b ->
        Option.map
          (fun route -> D.candidate ~learned:D.Ibgp route)
          (O.border_advert ~med_mode:ctx.med ~prefix ctx.inj b))
      borders
  in
  let ref_classes =
    D.steps_1_to_4 ~med_mode:ctx.med advert_cands
    |> List.map (fun (c : D.candidate) -> class_of c.D.route)
    |> List.sort_uniq R.compare
  in
  (ref_exits, ref_classes)

let empty_psol ctx prefix verdict =
  let n = ctx.cfg.Config.n_routers in
  {
    p_prefix = prefix;
    p_verdict = verdict;
    p_nodes = Array.init n (fun _ -> fresh ctx);
    p_delivered = Array.make n [];
    p_learnable = Array.make n [];
    p_best = Array.make n None;
    p_exits = Array.make n None;
    p_ref_exits = Array.make n None;
    p_ref_classes = [];
  }

let build_psol ctx pctx (nodes, verdict) =
  match verdict with
  | Converged _ ->
    let delivered, learnable, best, exits = extract ctx pctx nodes in
    let ref_exits, ref_classes = reference ctx pctx in
    {
      p_prefix = pctx.prefix;
      p_verdict = verdict;
      p_nodes = nodes;
      p_delivered = delivered;
      p_learnable = learnable;
      p_best = best;
      p_exits = exits;
      p_ref_exits = ref_exits;
      p_ref_classes = ref_classes;
    }
  | _ -> { (empty_psol ctx pctx.prefix verdict) with p_nodes = nodes }

(* ------------------------------------------------------------------ *)
(* Whole-network solve.                                                 *)

let masked_graph (cfg : Config.t) live =
  if Array.for_all Fun.id live then cfg.igp
  else begin
    let n = Graph.node_count cfg.igp in
    let g = Graph.create ~n in
    for u = 0 to n - 1 do
      if live.(u) then
        List.iter
          (fun (v, m) -> if live.(v) then Graph.add_arc g u v m)
          (Graph.neighbors cfg.igp u)
    done;
    g
  end

let make_ctx (cfg : Config.t) live workload =
  let inj =
    List.filter
      (fun (b, _, _) -> b >= 0 && b < cfg.n_routers && live.(b))
      workload
  in
  {
    cfg;
    med = cfg.med_mode;
    roles = Array.init cfg.n_routers (Roles.derive cfg);
    live;
    dist = Spf.all_pairs (masked_graph cfg live);
    inj;
    evals = 0;
    spf = cfg.n_routers;
  }

let solve ?(live = fun _ -> true) (cfg : Config.t) workload =
  let live_arr = Array.init cfg.n_routers live in
  let ctx = make_ctx cfg live_arr workload in
  let ps = O.prefixes ctx.inj in
  let psols =
    match Config.validate cfg with
    | Error e ->
      List.map
        (fun p -> empty_psol ctx p (Unsupported ("invalid configuration: " ^ e)))
        ps
    | Ok () -> (
      match cfg.scheme with
      | Config.Dual _ ->
        List.map
          (fun p ->
            empty_psol ctx p
              (Unsupported "Dual (transition) scheme is not statically modeled"))
          ps
      | _ ->
        List.map
          (fun p ->
            let pctx = make_pctx ctx p in
            build_psol ctx pctx (solve_prefix ctx pctx))
          ps)
  in
  {
    t_ctx = ctx;
    t_workload = workload;
    t_psols = psols;
    t_stats =
      {
        node_evals = ctx.evals;
        spf_rows = ctx.spf;
        prefixes_solved = List.length psols;
        prefixes_reused = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Accessors.                                                           *)

let config t = t.t_ctx.cfg
let workload t = t.t_workload
let stats t = t.t_stats
let prefixes t = List.map (fun ps -> ps.p_prefix) t.t_psols

let psol t p =
  match
    List.find_opt (fun ps -> Prefix.compare ps.p_prefix p = 0) t.t_psols
  with
  | Some ps -> ps
  | None -> invalid_arg ("Propagation: unknown prefix " ^ Prefix.to_string p)

let verdict t p = (psol t p).p_verdict
let learnable t p ~router = (psol t p).p_learnable.(router)
let delivered t p ~router = (psol t p).p_delivered.(router)
let exits t p = (psol t p).p_exits

let class_count t =
  List.fold_left
    (fun acc ps ->
      Array.fold_left (fun a l -> a + List.length l) acc ps.p_learnable)
    0 t.t_psols

(* ------------------------------------------------------------------ *)
(* What-if deltas.                                                      *)

type delta =
  | Fail_link of int * int
  | Fail_router of int
  | Fail_arr of int
  | Repartition of Partition.t

(* Re-solve a previous result under a new context. [plan ps] picks
   [`Reuse] or [`Seed rs]; non-converged prefixes always restart from
   scratch (a worklist cannot resume from a dispute cycle). *)
let redo t ctx plan =
  let reused = ref 0 in
  let psols =
    List.map
      (fun ps ->
        match ps.p_verdict with
        | Unsupported _ ->
          incr reused;
          ps
        | _ -> (
          match plan ps with
          | `Reuse ->
            incr reused;
            ps
          | `Seed seed ->
            let pctx = make_pctx ctx ps.p_prefix in
            let solved =
              match ps.p_verdict with
              | Converged _ -> resolve_from ctx pctx ps.p_nodes seed
              | _ -> solve_prefix ctx pctx
            in
            build_psol ctx pctx solved))
      t.t_psols
  in
  Ok
    {
      t_ctx = ctx;
      t_workload = t.t_workload;
      t_psols = psols;
      t_stats =
        {
          node_evals = ctx.evals;
          spf_rows = ctx.spf;
          prefixes_solved = List.length psols - !reused;
          prefixes_reused = !reused;
        };
    }

let rcp_nodes ctx =
  let acc = ref [] in
  Array.iteri
    (fun r (roles : Roles.t) -> if roles.is_rcp then acc := r :: !acc)
    ctx.roles;
  List.rev !acc

let copy_graph g =
  let n = Graph.node_count g in
  let g' = Graph.create ~n in
  for u = 0 to n - 1 do
    List.iter (fun (v, m) -> Graph.add_arc g' u v m) (Graph.neighbors g u)
  done;
  g'

(* Recompute the SPF rows of [ctx.dist] (previous distances in [old])
   that a topology change could affect, marking rows that did change.
   [tight r] must be a sound over-approximation of "row r's shortest
   paths used the failed element". *)
let refresh_rows ctx old g' tight =
  let n = Array.length old in
  let affected = ref [] in
  for r = 0 to n - 1 do
    if ctx.live.(r) && tight r then begin
      ctx.dist.(r) <- Spf.distances g' ~src:r;
      ctx.spf <- ctx.spf + 1;
      if ctx.dist.(r) <> old.(r) then affected := r :: !affected
    end
  done;
  List.rev !affected

let fail_link t u v =
  let ctx0 = t.t_ctx in
  let cfg = ctx0.cfg in
  let n = cfg.Config.n_routers in
  if u < 0 || u >= n || v < 0 || v >= n || u = v then
    Error "fail-link: router index out of range"
  else
    match Graph.metric cfg.Config.igp u v with
    | None -> Error (Printf.sprintf "fail-link: no link r%d -- r%d" u v)
    | Some m ->
      let igp' = copy_graph cfg.Config.igp in
      Graph.remove_edge igp' u v;
      let cfg' = { cfg with Config.igp = igp' } in
      let ctx =
        {
          ctx0 with
          cfg = cfg';
          dist = Array.map Array.copy ctx0.dist;
          evals = 0;
          spf = 0;
        }
      in
      let g' = masked_graph cfg' ctx.live in
      (* A row is affected only if the failed edge was on one of its
         shortest paths, i.e. tight in either direction. *)
      let tight r =
        let du = ctx0.dist.(r).(u) and dv = ctx0.dist.(r).(v) in
        du <> Spf.unreachable && dv <> Spf.unreachable
        && (du + m = dv || dv + m = du)
      in
      let affected = refresh_rows ctx ctx0.dist g' tight in
      let extra =
        match cfg'.Config.scheme with
        | Config.Rcp _ when affected <> [] -> rcp_nodes ctx
        | _ -> []
      in
      redo t ctx (fun _ ->
          if affected = [] then `Reuse else `Seed (affected @ extra))

let fail_router t x =
  let ctx0 = t.t_ctx in
  let cfg = ctx0.cfg in
  let n = cfg.Config.n_routers in
  if x < 0 || x >= n then Error "fail-router: index out of range"
  else if not ctx0.live.(x) then
    Error (Printf.sprintf "fail-router: r%d is already down" x)
  else begin
    let live = Array.copy ctx0.live in
    live.(x) <- false;
    let inj = List.filter (fun (b, _, _) -> live.(b)) ctx0.inj in
    let ctx =
      {
        ctx0 with
        live;
        inj;
        dist = Array.map Array.copy ctx0.dist;
        evals = 0;
        spf = 0;
      }
    in
    let g' = masked_graph cfg live in
    let x_arcs =
      List.filter (fun (w, _) -> ctx0.live.(w)) (Graph.neighbors cfg.Config.igp x)
    in
    (* A row is affected only if a shortest path traversed x: it entered
       x (finite d(r,x)) and left over some tight arc x -> w. *)
    let tight r =
      r = x
      || (let dx = ctx0.dist.(r).(x) in
          dx <> Spf.unreachable
          && List.exists
               (fun (w, m) ->
                 ctx0.dist.(r).(w) <> Spf.unreachable
                 && dx + m = ctx0.dist.(r).(w))
               x_arcs)
    in
    let affected = refresh_rows ctx ctx0.dist g' (fun r -> r <> x && tight r) in
    ctx.dist.(x) <- Spf.distances g' ~src:x;
    ctx.spf <- ctx.spf + 1;
    let extra =
      match cfg.Config.scheme with
      | Config.Rcp _ -> rcp_nodes ctx
      | _ -> []
    in
    redo t ctx (fun ps ->
        let pctx = make_pctx ctx ps.p_prefix in
        `Seed (dedup_ints ((x :: affected) @ successors ctx pctx x @ extra)))
  end

let all_live_seed ctx =
  let acc = ref [] in
  Array.iteri (fun r up -> if up then acc := r :: !acc) ctx.live;
  List.rev !acc

let fail_arr t a =
  let ctx0 = t.t_ctx in
  let cfg = ctx0.cfg in
  match cfg.Config.scheme with
  | Config.Abrr s ->
    if a < 0 || a >= cfg.Config.n_routers then
      Error "fail-arr: index out of range"
    else if not (Array.exists (List.mem a) s.Config.arrs) then
      Error (Printf.sprintf "fail-arr: r%d serves no AP" a)
    else begin
      let arrs' = Array.map (List.filter (fun r -> r <> a)) s.Config.arrs in
      let cfg' =
        { cfg with Config.scheme = Config.Abrr { s with Config.arrs = arrs' } }
      in
      match Config.validate cfg' with
      | Error e -> Error ("fail-arr: resulting configuration invalid: " ^ e)
      | Ok () ->
        let ctx =
          {
            ctx0 with
            cfg = cfg';
            roles = Array.init cfg.Config.n_routers (Roles.derive cfg');
            evals = 0;
            spf = 0;
          }
        in
        redo t ctx (fun ps ->
            let covering =
              Partition.aps_of_prefix s.Config.partition ps.p_prefix
            in
            if List.exists (fun ap -> List.mem a s.Config.arrs.(ap)) covering
            then `Seed (all_live_seed ctx)
            else `Reuse)
    end
  | _ -> Error "fail-arr: scheme is not ABRR"

let repartition t part' =
  let ctx0 = t.t_ctx in
  let cfg = ctx0.cfg in
  match cfg.Config.scheme with
  | Config.Abrr s ->
    if Partition.count part' <> Array.length s.Config.arrs then
      Error "repartition: AP count does not match the ARR assignment"
    else begin
      let cfg' =
        {
          cfg with
          Config.scheme = Config.Abrr { s with Config.partition = part' };
        }
      in
      match Config.validate cfg' with
      | Error e -> Error ("repartition: resulting configuration invalid: " ^ e)
      | Ok () ->
        let ctx =
          {
            ctx0 with
            cfg = cfg';
            roles = Array.init cfg.Config.n_routers (Roles.derive cfg');
            evals = 0;
            spf = 0;
          }
        in
        redo t ctx (fun ps ->
            let old_cover =
              Partition.aps_of_prefix s.Config.partition ps.p_prefix
            in
            let new_cover = Partition.aps_of_prefix part' ps.p_prefix in
            if List.equal Int.equal old_cover new_cover then `Reuse
            else `Seed (all_live_seed ctx))
    end
  | _ -> Error "repartition: scheme is not ABRR"

let apply_delta t = function
  | Fail_link (u, v) -> fail_link t u v
  | Fail_router x -> fail_router t x
  | Fail_arr a -> fail_arr t a
  | Repartition p -> repartition t p

let same_verdict a b =
  match (a, b) with
  | Converged _, Converged _
  | Diverged _, Diverged _
  | Unresolved _, Unresolved _
  | Unsupported _, Unsupported _ ->
    true
  | _ -> false

let same_outcome a b =
  List.length a.t_psols = List.length b.t_psols
  && List.for_all2
       (fun pa pb ->
         Prefix.compare pa.p_prefix pb.p_prefix = 0
         && same_verdict pa.p_verdict pb.p_verdict
         &&
         let n = Array.length pa.p_best in
         n = Array.length pb.p_best
         &&
         let ok = ref true in
         for r = 0 to n - 1 do
           (match (pa.p_best.(r), pb.p_best.(r)) with
           | Some x, Some y when R.equal x y -> ()
           | None, None -> ()
           | _ -> ok := false);
           if pa.p_exits.(r) <> pb.p_exits.(r) then ok := false
         done;
         !ok)
       a.t_psols b.t_psols

(* ------------------------------------------------------------------ *)
(* Findings.                                                            *)

let findings t =
  let ctx = t.t_ctx in
  let n = ctx.cfg.Config.n_routers in
  let psols = t.t_psols in
  if psols = [] then
    [
      Report.warn ~code:"PROP-NO-WORKLOAD" "prop.converge"
        "no injected routes: nothing to analyze";
    ]
  else begin
    let conv =
      List.filter
        (fun ps -> match ps.p_verdict with Converged _ -> true | _ -> false)
        psols
    in
    let diverged =
      List.filter
        (fun ps -> match ps.p_verdict with Diverged _ -> true | _ -> false)
        psols
    in
    let unresolved =
      List.filter_map
        (fun ps ->
          match ps.p_verdict with Unresolved w -> Some (ps, w) | _ -> None)
        psols
    in
    let unsupported =
      List.filter_map
        (fun ps ->
          match ps.p_verdict with Unsupported w -> Some (ps, w) | _ -> None)
        psols
    in
    (* Classify dispute cycles: MED-induced cycles (RFC 3345) vanish
       under always-compare-med, topology cycles persist. *)
    let med_div, topo_div =
      List.partition
        (fun ps ->
          let ctx' = { ctx with med = D.Always_compare } in
          let pctx = make_pctx ctx' ps.p_prefix in
          match snd (solve_prefix ctx' pctx) with
          | Converged _ -> true
          | _ -> false)
        diverged
    in
    let converge_findings =
      (if diverged = [] && unresolved = [] && conv <> [] then
         [
           Report.pass "prop.converge"
             "symbolic fixpoint reached on all %d analyzable prefixes"
             (List.length conv);
         ]
       else [])
      @ (match med_div with
        | [] -> []
        | ps0 :: _ ->
          [
            Report.fail ~code:"OSC-MED" "prop.converge"
              "%d prefixes have no fixpoint: MED-induced dispute cycle (RFC \
               3345), vanishes under always-compare-med (e.g. %s)"
              (List.length med_div)
              (Prefix.to_string ps0.p_prefix);
          ])
      @ (match topo_div with
        | [] -> []
        | ps0 :: _ ->
          [
            Report.fail ~code:"OSC-TOPO" "prop.converge"
              "%d prefixes have no fixpoint: topology-based dispute cycle, \
               persists under always-compare-med (e.g. %s)"
              (List.length topo_div)
              (Prefix.to_string ps0.p_prefix);
          ])
      @ (match unresolved with
        | [] -> []
        | (ps0, why) :: _ ->
          [
            Report.warn ~code:"PROP-UNRESOLVED" "prop.converge"
              "%d prefixes unresolved (e.g. %s: %s)" (List.length unresolved)
              (Prefix.to_string ps0.p_prefix)
              why;
          ])
      @
      match unsupported with
      | [] -> []
      | (_, why) :: _ ->
        [
          Report.warn ~code:"PROP-UNSUPPORTED" "prop.converge"
            "%d prefixes not analyzable: %s" (List.length unsupported) why;
        ]
    in
    (* Visibility: a router that cannot learn some best-AS-level class
       whose egress is elsewhere — TBRR's hidden path diversity. *)
    let vis_slots = ref 0 in
    let vis_example = ref None in
    List.iter
      (fun ps ->
        for r = 0 to n - 1 do
          if ctx.live.(r) then begin
            let missing =
              List.filter
                (fun cls ->
                  (match owner_of ctx cls with
                  | Some o -> o <> r
                  | None -> false)
                  && not (List.exists (R.equal cls) ps.p_learnable.(r)))
                ps.p_ref_classes
            in
            if missing <> [] then begin
              incr vis_slots;
              if !vis_example = None then
                vis_example := Some (ps.p_prefix, r, List.length missing)
            end
          end
        done)
      conv;
    let visibility_findings =
      if conv = [] then []
      else if !vis_slots = 0 then
        [
          Report.pass "prop.visibility"
            "every router can learn every best-AS-level class";
        ]
      else
        match !vis_example with
        | Some (p, r, k) ->
          [
            Report.warn ~code:"VIS-HIDDEN" "prop.visibility"
              "%d router-prefix slots are hidden some best-AS-level class \
               (e.g. r%d misses %d classes for %s)"
              !vis_slots r k (Prefix.to_string p);
          ]
        | None -> []
    in
    (* Exits vs the full-visibility reference. *)
    let subopt = ref 0 in
    let subopt_example = ref None in
    List.iter
      (fun ps ->
        for r = 0 to n - 1 do
          if ctx.live.(r) then
            match (ps.p_exits.(r), ps.p_ref_exits.(r)) with
            | Some got, Some want when got <> want ->
              incr subopt;
              if !subopt_example = None then
                subopt_example := Some (ps.p_prefix, r, got, want)
            | _ -> ()
        done)
      conv;
    let exit_findings =
      if conv = [] then []
      else if !subopt = 0 then
        [
          Report.pass "prop.exit"
            "every router's egress matches the full-visibility reference";
        ]
      else
        match !subopt_example with
        | Some (p, r, got, want) ->
          [
            Report.warn ~code:"EXIT-SUBOPT" "prop.exit"
              "%d router-prefix slots use a suboptimal exit (e.g. r%d exits \
               via r%d instead of r%d for %s)"
              !subopt r got want (Prefix.to_string p);
          ]
        | None -> []
    in
    (* Forwarding loops along IGP shortest paths over the masked graph. *)
    let loop_cfg = { ctx.cfg with Config.igp = masked_graph ctx.cfg ctx.live } in
    let loop =
      List.find_map
        (fun ps ->
          Option.map
            (fun walk -> (ps.p_prefix, walk))
            (Deflection.find_loop loop_cfg ps.p_exits))
        conv
    in
    let fwd_findings =
      if conv = [] then []
      else
        match loop with
        | None ->
          [ Report.pass "prop.fwd" "hop-by-hop forwarding is loop-free" ]
        | Some (p, walk) ->
          [
            Report.fail ~code:"FWD-LOOP" "prop.fwd"
              "%s: inconsistent egress choices form a forwarding loop: %s"
              (Prefix.to_string p)
              (String.concat " -> " (List.map (Printf.sprintf "r%d") walk));
          ]
    in
    let summary =
      Report.pass "prop.summary"
        "%d prefixes, %d learnable classes, %d node evals, %d SPF rows"
        (List.length psols) (class_count t) t.t_stats.node_evals
        t.t_stats.spf_rows
    in
    converge_findings @ visibility_findings @ exit_findings @ fwd_findings
    @ [ summary ]
  end

let check ?live cfg workload = findings (solve ?live cfg workload)
