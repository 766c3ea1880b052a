open Netaddr
open Eventsim
module D = Bgp.Decision
module R = Bgp.Route
module Rib = Bgp.Rib
module As_path = Bgp.As_path

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

(* ------------------------------------------------------------------ *)
(* The table registry                                                  *)

(* Every route table of a router lives in one of three arrays, indexed
   by the slot names below. The slot order is the snapshot's (changing
   it is a format change), and a slot's class names the entry count it
   adds to. Creation, the wipe, the prefix walk, the counts and the
   snapshot all take the arrays whole. *)
type table_class =
  | Ebgp_in
  | Local_in
  | Loc
  | Client_out  (* the client function's advertisements into iBGP *)
  | Reflector_out  (* reflector peer-group Adj-RIB-Outs *)
  | Managed_in  (* learned in a reflector role, from clients *)
  | Unmanaged_in  (* learned in the client role *)

(* [ribs]: one route set per prefix. *)
let ebgp_rib = 0 and local_rib = 1 and loc_rib = 2
let adv_mesh = 3 and adv_confed = 4 and adv_rcp = 5 and adv_trr = 6 and adv_arr = 7
let out_mesh = 8 and out_clients = 9 and out_arr = 10

let rib_classes =
  [ Ebgp_in; Local_in; Loc; Client_out; Client_out; Client_out; Client_out;
    Client_out; Reflector_out; Reflector_out; Reflector_out ]

(* [planes]: one route set per prefix and source. [rcp_out], an RCP
   node's Adj-RIB-Out, has one source per client. *)
let managed_trr = 0 and managed_arr = 1 and mesh_in = 2 and confed_in = 3
let managed_rcp = 4 and from_rcp = 5 and rcp_out = 6 and from_trr = 7
let from_arr = 8

let plane_classes =
  [ Managed_in; Managed_in; Unmanaged_in; Unmanaged_in; Managed_in;
    Unmanaged_in; Reflector_out; Unmanaged_in; Unmanaged_in ]

(* [ids]: the add-paths id allocators. *)
let ids_mesh = 0 and ids_clients = 1 and ids_arr = 2 and ids_adv_trr = 3
let ids_adv_arr = 4
let n_ids = 5

type t = {
  env : env;
  self : Ipv4.t;
  mutable roles : Roles.t;
  ribs : Rib.t array;
  planes : Adj_in.t array;
  ids : Path_id.t array;
  ebgp_neighbors : (int * int, Ipv4.t) Hashtbl.t;
  inbox : input Queue.t;
  mutable process_scheduled : bool;
  out : Outbox.t;
  damping : Damping_table.t;
  counters : Counters.t;
  mutable rejected_loops : int;
  mutable up : bool;
}

let create env =
  let counters = Counters.create () in
  {
    env;
    self = Config.loopback env.id;
    roles = Roles.derive env.config env.id;
    ribs = Array.init (List.length rib_classes) (fun _ -> Rib.create ());
    planes = Array.init (List.length plane_classes) (fun _ -> Adj_in.create ());
    ids = Array.init n_ids (fun _ -> Path_id.create ());
    ebgp_neighbors = Hashtbl.create 16;
    inbox = Queue.create ();
    process_scheduled = false;
    out =
      Outbox.create ~id:env.id ~config:env.config ~counters ~now:env.now
        ~schedule_flush:env.schedule_flush ~transmit:env.transmit;
    damping = Damping_table.create ();
    counters;
    rejected_loops = 0;
    up = true;
  }

(* Every prefix with state in any table, once per table holding it. *)
let iter_tables t f =
  Array.iter (Rib.iter (fun p _ -> f p)) t.ribs;
  Array.iter (Adj_in.iter_prefixes f) t.planes

(* The prefixes [iter] visits, ascending, each once. *)
let sorted_unique iter =
  let ps = ref [] in
  iter (fun p -> ps := p :: !ps);
  List.sort_uniq Prefix.compare !ps

let entries t cls =
  let n = ref 0 in
  List.iteri
    (fun i c -> if c = cls then n := !n + Rib.entry_count t.ribs.(i))
    rib_classes;
  List.iteri
    (fun i c -> if c = cls then n := !n + Adj_in.entry_count t.planes.(i))
    plane_classes;
  !n

(* Cold start: all BGP state is lost. *)
let wipe t =
  Array.iter Rib.clear t.ribs;
  Array.iter Adj_in.clear t.planes;
  Array.iter Path_id.clear t.ids;
  Hashtbl.reset t.ebgp_neighbors;
  Queue.clear t.inbox;
  Outbox.clear t.out;
  Damping_table.clear t.damping

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

let best t p = match Rib.get t.ribs.(loc_rib) p with [] -> None | r :: _ -> Some r

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
let push_table t s ~learned ~tag plane p =
  let n = Adj_in.node t.planes.(plane) p in
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
  push_local_rev t s (Rib.get t.ribs.(local_rib) p);
  push_ebgp_rev t s (Prefix.to_key p) (Rib.get t.ribs.(ebgp_rib) p)

(* An ARR's client function reads its own reflected set directly (the
   internal role passing of §2.1), skipping routes it injected itself. *)
let rec push_own_arr_rev t s = function
  | [] -> ()
  | route :: rs ->
    push_own_arr_rev t s rs;
    if not (originated_by t.self route) then
      push_ibgp t s ~learned:D.Ibgp ~tag:tag_other t.env.id route

let serves_prefix t p = Roles.serves t.roles p

(* ABRR plane: the own reflected set, then routes from ARRs for other
   APs. *)
let push_abrr t s p =
  if serves_prefix t p then push_own_arr_rev t s (Rib.get t.ribs.(out_arr) p);
  push_table t s ~learned:D.Ibgp ~tag:tag_other from_arr p

(* TRR-plane candidates, depending on role. *)
let push_tbrr t s p =
  if t.roles.my_trrs <> [] then
    push_table t s ~learned:D.Ibgp ~tag:tag_other from_trr p;
  if t.roles.is_trr then begin
    push_table t s ~learned:D.Ibgp ~tag:tag_other mesh_in p;
    push_table t s ~learned:D.Ibgp ~tag:tag_clientside managed_trr p
  end

(* The client function's candidate set: everything this router may
   choose from. *)
let load_client t s p =
  S.clear s;
  (match t.env.config.scheme with
  | Config.Full_mesh -> push_table t s ~learned:D.Ibgp ~tag:tag_other mesh_in p
  | Config.Confed _ ->
    push_table t s ~learned:D.Confed_ebgp ~tag:tag_other confed_in p;
    push_table t s ~learned:D.Ibgp ~tag:tag_other mesh_in p
  | Config.Rcp _ -> push_table t s ~learned:D.Ibgp ~tag:tag_other from_rcp p
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
  if with_mesh then push_table t s ~learned:D.Ibgp ~tag:tag_other mesh_in p;
  push_table t s ~learned:D.Ibgp ~tag:tag_clientside managed_trr p;
  push_own_routes t s p

(* ------------------------------------------------------------------ *)
(* Route derivation                                                    *)

(* A TRR's advertisement of slot [i]: iBGP-learned routes are
   reflected, other-learned ones advertised as its own. *)
let derive_reflected t s i =
  match S.learned s i with
  | D.Ibgp ->
    Derive.trr_reflect t.roles ~self:t.self ~src:(S.src s i) (S.route s i)
  | D.Ebgp | D.Local | D.Confed_ebgp -> Derive.own ~self:t.self (S.route s i)

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

(* Every per-plane Adj-RIB-Out change is stored and then goes through
   here (DESIGN.md, "Implementation decisions" 5): count one generated
   update and enqueue the change toward each target, in the order
   [targets] iterates them. The delta is built once and shared (deltas
   are immutable), and so is its item: every target that gets the
   shared delta gets the same physical item. [per_target] substitutes a
   copy only for a target that must see something else. *)
let emit t ~channel ~targets ~per_target p routes withdrawn_ids =
  t.counters.updates_generated <- t.counters.updates_generated + 1;
  let delta = { Proto.prefix = p; routes; withdrawn_ids } in
  let item = (channel, delta) in
  targets (fun dst ->
      let d = per_target dst delta in
      Outbox.enqueue t.out dst (if d == delta then item else (channel, d)))

let write_out t ~rib ~channel ~targets ~per_target p routes withdrawn_ids =
  rib_set t rib p routes;
  emit t ~channel ~targets ~per_target p routes withdrawn_ids

let to_each dsts f = List.iter f dsts
let keep _ d = d

(* Single-path planes: one route under path id 0, replaced in place.
   Split horizon by withdrawal: the [sender] of the advertised route
   ([-1]: none) gets a withdrawal of whatever it was sent before, never
   its own route back. *)
let export_single t ~rib ~channel ~targets ~sender p desired =
  if not (same_single (Rib.get rib p) desired) then
    match desired with
    | None -> write_out t ~rib ~channel ~targets ~per_target:keep p [] [ 0 ]
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
      let d =
        Derive.arr_reflect t.roles ~self:t.self ~src:(S.src s i)
          (S.route s i)
      in
      d :: reflected_set t s ~reachable (k + 1)
    else reflected_set t s ~reachable (k + 1)

let recompute_arr t p =
  match t.roles.partition with
  | None -> ()
  | Some partition ->
    if serves_prefix t p then begin
      let s = S.get () in
      S.clear s;
      let n = Adj_in.node t.planes.(managed_arr) p in
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
      export_set t ~rib:t.ribs.(out_arr) ~ids:t.ids.(ids_arr)
        ~channel:Proto.From_arr
        ~targets:(fun f ->
          Roles.iter_reflect_targets t.env.config t.roles.abrr_arrs
            ~aps:(Roles.aps_holding partition p t.roles.arr_aps) f)
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
  export_single t ~rib:t.ribs.(out_clients) ~channel:Proto.From_trr
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
  export_single t ~rib:t.ribs.(out_mesh) ~channel:Proto.Mesh
    ~targets:(to_each t.roles.trr_mesh) ~sender:mesh_sender p mesh_desired

let recompute_trr_multi t p =
  let s = S.get () in
  let export ~with_mesh ~rib ~ids ~channel ~targets =
    load_trr t s p ~with_mesh;
    S.run ~med_mode:(med_mode t) s;
    export_set t ~rib:t.ribs.(rib) ~ids:t.ids.(ids) ~channel
      ~targets:(to_each targets) p (reflected_survivors t s 0)
  in
  export ~with_mesh:true ~rib:out_clients ~ids:ids_clients
    ~channel:Proto.From_trr ~targets:t.roles.my_trr_clients;
  export ~with_mesh:false ~rib:out_mesh ~ids:ids_mesh ~channel:Proto.Mesh
    ~targets:t.roles.trr_mesh

(* ------------------------------------------------------------------ *)
(* Client function: decision + export                                  *)

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
      let d = Derive.own ~self:t.self (S.route s i) in
      d :: own_survivors t s (k + 1)
    | D.Ibgp | D.Confed_ebgp -> own_survivors t s (k + 1)

(* The client's own advertisement of the winner: only an eBGP or local
   winner is advertised. *)
let own_winner t s =
  let w = S.winner s in
  if w < 0 then None
  else
    match S.learned s w with
    | D.Ebgp | D.Local -> Some (Derive.own ~self:t.self (S.route s w))
    | D.Ibgp | D.Confed_ebgp -> None

let arr_targets t partition p f =
  to_each (Roles.arrs_of t.roles.abrr_arrs partition p) f

let client_export t s p =
  if t.roles.is_client then begin
    (match t.env.config.scheme with
    | Config.Full_mesh ->
      export_single t ~rib:t.ribs.(adv_mesh) ~channel:Proto.Mesh
        ~targets:(to_each t.roles.mesh_peers) ~sender:(-1) p (own_winner t s)
    | Config.Tbrr _ | Config.Abrr _ | Config.Confed _ | Config.Rcp _
    | Config.Dual _ -> ());
    if t.roles.my_trrs <> [] then begin
      let targets = to_each t.roles.my_trrs in
      if t.roles.tbrr_multipath then
        export_set t ~rib:t.ribs.(adv_trr) ~ids:t.ids.(ids_adv_trr)
          ~channel:Proto.To_trr ~targets p (own_survivors t s 0)
      else
        export_single t ~rib:t.ribs.(adv_trr) ~channel:Proto.To_trr ~targets
          ~sender:(-1) p (own_winner t s)
    end;
    match t.roles.partition with
    | None -> ()
    | Some partition ->
      export_set t ~rib:t.ribs.(adv_arr) ~ids:t.ids.(ids_adv_arr)
        ~channel:Proto.To_arr ~targets:(arr_targets t partition p) p
        (own_survivors t s 0)
  end

(* Load and run the client decision, and store its winner in the
   Loc-RIB. The result stays in the scratch for the exports; returns
   whether the Loc-RIB changed. *)
let run_decision t s p =
  load_client t s p;
  S.run ~med_mode:(med_mode t) s;
  let w = S.winner s in
  let loc = t.ribs.(loc_rib) in
  let changed =
    match Rib.get loc p with
    | [] -> w >= 0
    | [ old ] -> w < 0 || not (R.same_path old (S.route s w))
    | _ :: _ :: _ -> true
  in
  if changed then begin
    rib_set t loc p (if w < 0 then [] else [ S.route s w ]);
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
    | D.Ebgp | D.Local -> Derive.own ~self:t.self route
    | D.Confed_ebgp | D.Ibgp -> Derive.stripped route
  in
  let mesh_desired =
    if w >= 0 && S.learned s w <> D.Ibgp then Some (base ()) else None
  in
  export_single t ~rib:t.ribs.(adv_mesh) ~channel:Proto.Mesh
    ~targets:(to_each t.roles.mesh_peers) ~sender:(-1) p mesh_desired;
  let confed_desired =
    if w < 0 then None
    else
      let r = base () in
      Some (R.update ~as_path:(As_path.prepend_confed my_asn (R.as_path r)) r)
  in
  let sender = if w < 0 then -1 else S.src s w in
  export_single t ~rib:t.ribs.(adv_confed) ~channel:Proto.Confed
    ~targets:(to_each t.roles.confed_links) ~sender p confed_desired

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
  let n = Adj_in.node t.planes.(managed_rcp) p in
  let out = t.planes.(rcp_out) in
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
      if not (same_single (Adj_in.get out p client) desired) then begin
        let routes, withdrawn =
          match desired with None -> ([], [ 0 ]) | Some r -> ([ r ], [])
        in
        t.counters.rib_touches <- t.counters.rib_touches + 1;
        ignore (Adj_in.exchange out p client routes);
        emit t ~channel:Proto.From_rcp ~targets:(fun f -> f client)
          ~per_target:keep p routes withdrawn
      end)
    t.roles.rcp_clients

let rcp_client_export t s p =
  if t.roles.is_client then
    export_set t ~rib:t.ribs.(adv_rcp) ~ids:t.ids.(ids_adv_arr)
      ~channel:Proto.To_rcp ~targets:(to_each t.roles.rcps) p
      (own_survivors t s 0)

(* ARR reflection, then the client decision and the exports that read
   its result, then the TRR planes: each loads the scratch afresh, so
   the client's result is read out before the TRR planes (or a
   best-change hook) run. A router runs only the reflector functions
   its roles give it: ARR ones under ABRR and Dual, TRR ones under
   TBRR and Dual. *)
let recompute t p =
  recompute_arr t p;
  if t.roles.is_rcp then recompute_rcp t p;
  let s = S.get () in
  let changed = run_decision t s p in
  (match t.env.config.scheme with
  | Config.Confed _ -> confed_export t s p
  | Config.Rcp _ -> rcp_client_export t s p
  | Config.Full_mesh | Config.Tbrr _ | Config.Abrr _ | Config.Dual _ ->
    client_export t s p);
  if changed then t.env.on_best_change p (best t p);
  if t.roles.is_trr then
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

let store t src channel p routes dirty plane ~best_only =
  let routes =
    if best_only && not t.env.config.store_full_sets then best_of_set t src routes
    else routes
  in
  t.counters.rib_touches <- t.counters.rib_touches + 1;
  Churn.note_store dirty p channel (Adj_in.exchange t.planes.(plane) p src routes)
    routes

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
  | Proto.Mesh -> store t src channel p keep dirty mesh_in ~best_only:false
  | Proto.Confed -> store t src channel p keep dirty confed_in ~best_only:false
  | Proto.To_rcp ->
    if t.roles.is_rcp then store t src channel p keep dirty managed_rcp ~best_only:false
    else reject_loop t
  | Proto.From_rcp -> store t src channel p keep dirty from_rcp ~best_only:false
  | Proto.To_trr ->
    if t.roles.is_trr then store t src channel p keep dirty managed_trr ~best_only:false
    else reject_loop t
  | Proto.To_arr ->
    if t.roles.arr_aps <> [] && serves_prefix t p then
      store t src channel p keep dirty managed_arr ~best_only:false
    else reject_loop t
  | Proto.From_trr -> store t src channel p keep dirty from_trr ~best_only:true
  | Proto.From_arr -> store t src channel p keep dirty from_arr ~best_only:true

let rec apply_items t src dirty = function
  | [] -> ()
  | item :: items ->
    apply_item t src item dirty;
    apply_items t src dirty items

(* ------------------------------------------------------------------ *)
(* Incremental decision (DESIGN.md, "Incremental decision"). Under
   [Config.Naive] the classification still runs (the counters must
   match exactly) but every dirty prefix recomputes, which is the
   differential oracle. *)

(* The planes this router computes for [p] whose incumbents [c] can
   challenge. *)
let guarded t p c =
  let trr = t.roles.is_trr in
  Churn.plane_loc
  lor (if trr then Churn.plane_trr else 0)
  lor (if trr && (t.roles.tbrr_multipath || t.roles.tbrr_best_external) then
         Churn.plane_mesh
       else 0)
  lor (if Churn.needs c Churn.plane_arr && serves_prefix t p then
         Churn.plane_arr
       else 0)

let classify t p c =
  if t.roles.is_rcp then Churn.Full
  else
    Churn.classify c p ~med_mode:(med_mode t) ~guarded:(guarded t p c)
      ~loc:t.ribs.(loc_rib) ~trr:t.ribs.(out_clients) ~mesh:t.ribs.(out_mesh)
      ~arr:t.ribs.(out_arr)

(* Decide every dirty prefix exactly once, in prefix order. The counters
   are incremented identically under both engines; only whether the sound
   skips actually skip differs — and a naive recomputation of a skipped
   prefix changes no RIB, generates no update and stamps no change, so
   the two engines stay counter- and snapshot-identical. *)
let decide t ~incremental p c =
  t.counters.decisions_run <- t.counters.decisions_run + 1;
  match classify t p c with
  | Churn.Full ->
    t.counters.decisions_full <- t.counters.decisions_full + 1;
    recompute t p
  | Churn.Delta ->
    t.counters.decisions_delta <- t.counters.decisions_delta + 1;
    if not incremental then recompute t p
  | Churn.Noop ->
    t.counters.decisions_skipped <- t.counters.decisions_skipped + 1;
    if not incremental then recompute t p

let decide_incremental t p c = decide t ~incremental:true p c
let decide_naive t p c = decide t ~incremental:false p c

let run_batch t dirty =
  Churn.drain dirty t
    (if t.env.config.decision = Config.Incremental then decide_incremental
     else decide_naive)

(* ------------------------------------------------------------------ *)
(* eBGP and local inputs                                               *)

(* [prev :: tail] for the route [prev] of [routes] carrying [path_id],
   [tail] when there is none. *)
let rec cons_path_id path_id routes tail =
  match routes with
  | [] -> tail
  | (r : R.t) :: rs ->
    if r.R.path_id = path_id then r :: tail else cons_path_id path_id rs tail

(* Route-flap damping sits on the eBGP announce path: [true] when the
   table absorbed the announcement, which is then not installed. *)
let damp_announce t params ~neighbor (route : R.t) dirty =
  let p = route.R.prefix in
  let ebgp = t.ribs.(ebgp_rib) in
  let prev =
    List.find_opt (fun (r : R.t) -> r.R.path_id = route.R.path_id) (Rib.get ebgp p)
  in
  match
    Damping_table.announce t.damping params ~now:(t.env.now ())
      ~schedule:t.env.schedule_process ~neighbor ~prev route
  with
  | Damping_table.Install -> false
  | Damping_table.Absorbed ->
    Churn.mark_noop dirty p;
    true
  | Damping_table.Suppressed ->
    (match prev with
    | Some pr ->
      ignore (Rib.drop ebgp p ~path_id:pr.R.path_id);
      Hashtbl.remove t.ebgp_neighbors (Prefix.to_key p, route.R.path_id);
      Churn.mark_delta dirty p Churn.planes_clientside [ pr ]
    | None -> Churn.mark_noop dirty p);
    t.counters.routes_damped <- t.counters.routes_damped + 1;
    true

(* Reinstate the held routes whose penalty decayed, into the batch. *)
let damping_pass t dirty =
  match t.env.config.Config.damping with
  | None -> ()
  | Some params ->
    List.iter
      (fun ((r : R.t), neighbor) ->
        ignore (Rib.upsert t.ribs.(ebgp_rib) r);
        Hashtbl.replace t.ebgp_neighbors (Prefix.to_key r.R.prefix, r.R.path_id)
          neighbor;
        Churn.mark_delta dirty r.R.prefix Churn.planes_clientside [ r ])
      (Damping_table.mature t.damping params ~now:(t.env.now ())
         ~schedule:t.env.schedule_process)

(* Store or drop one eBGP or local route: a change challenges the
   client-side planes with the routes that entered and left. *)
let upsert_own t slot dirty (route : R.t) =
  let p = route.R.prefix in
  let old = Rib.get t.ribs.(slot) p in
  if Rib.upsert t.ribs.(slot) route then
    Churn.mark_delta dirty p Churn.planes_clientside
      (route :: cons_path_id route.R.path_id old [])
  else Churn.mark_noop dirty p

let drop_own t slot dirty prefix path_id =
  let old = Rib.get t.ribs.(slot) prefix in
  let dropped = Rib.drop t.ribs.(slot) prefix ~path_id in
  if dropped then
    Churn.mark_delta dirty prefix Churn.planes_clientside (cons_path_id path_id old []);
  dropped

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
      let key = (Prefix.to_key route.R.prefix, route.R.path_id) in
      upsert_own t ebgp_rib dirty route;
      (* A neighbour change with identical attributes still shifts the
         candidate's peer identity (steps 7-8): recompute in full. *)
      (match Hashtbl.find t.ebgp_neighbors key with
      | n -> if not (Ipv4.equal n neighbor) then Churn.mark_full dirty route.R.prefix
      | exception Not_found -> ());
      Hashtbl.replace t.ebgp_neighbors key neighbor
    end
  | In_ebgp_withdraw { neighbor; prefix; path_id } ->
    (match t.env.config.Config.damping with
    | Some params ->
      Damping_table.withdraw t.damping params ~now:(t.env.now ()) ~neighbor
        ~prefix ~path_id
    | None -> ());
    if drop_own t ebgp_rib dirty prefix path_id then
      Hashtbl.remove t.ebgp_neighbors (Prefix.to_key prefix, path_id)
  | In_local route -> upsert_own t local_rib dirty route
  | In_local_withdraw { prefix; path_id } ->
    ignore (drop_own t local_rib dirty prefix path_id)
  | In_redecide_all -> iter_tables t (fun p -> Churn.mark_full dirty p)

let rec drain_inbox t dirty =
  if not (Queue.is_empty t.inbox) then begin
    apply_input t (Queue.take t.inbox) dirty;
    drain_inbox t dirty
  end

let process_now t =
  t.process_scheduled <- false;
  if not t.up then Queue.clear t.inbox
  else begin
    let dirty = Churn.batch () in
    drain_inbox t dirty;
    damping_pass t dirty;
    run_batch t dirty;
    Outbox.flush t.out
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

(* The MRAI flush timer cannot be cancelled once scheduled, so it can
   fire after this router went down, or after the session it was armed
   for was purged by a peer failure. Both are stale: a down router must
   not transmit, and the outbox ignores a purged session. *)
let flush_peer t ~peer = if t.up then Outbox.flush_peer t.out ~peer

(* Session teardown towards a failed peer: forget everything learned
   from it (its Adj-RIB-Outs stay) and stop holding pending output for
   it. *)
let purge_peer t ~peer =
  if t.up then begin
    let dirty = Churn.batch () in
    (* Wholesale table drops invalidate plane incumbents structurally:
       every affected prefix recomputes in full. *)
    List.iteri
      (fun i c ->
        if c = Managed_in || c = Unmanaged_in then
          List.iter (Churn.mark_full dirty) (Adj_in.drop_source t.planes.(i) peer))
      plane_classes;
    Outbox.drop_session t.out peer;
    if not (Churn.is_empty dirty) then begin
      run_batch t dirty;
      Outbox.flush t.out
    end
  end

(* Session re-establishment towards a recovered peer: replay the current
   Adj-RIB-Out state that peer is entitled to (BGP's initial full table
   exchange). *)
let refresh_to t ~peer =
  if t.up then begin
    let announce channel p routes =
      Outbox.enqueue t.out peer
        (channel, { Proto.prefix = p; routes; withdrawn_ids = [] })
    in
    let replay slot channel entitled =
      Rib.iter (fun p routes -> if entitled p then announce channel p routes) t.ribs.(slot)
    in
    let always _ = true in
    let roles = t.roles in
    if List.mem peer roles.mesh_peers then replay adv_mesh Proto.Mesh always;
    if List.mem peer roles.confed_links then replay adv_confed Proto.Confed always;
    if List.mem peer roles.rcps then replay adv_rcp Proto.To_rcp always;
    if roles.is_rcp then begin
      let out = t.planes.(rcp_out) in
      Adj_in.iter_prefixes
        (fun p ->
          match Adj_in.get out p peer with
          | [] -> ()
          | routes -> announce Proto.From_rcp p routes)
        out
    end;
    if List.mem peer roles.my_trrs then replay adv_trr Proto.To_trr always;
    (match roles.partition with
    | Some partition ->
      replay adv_arr Proto.To_arr (fun p ->
          List.mem peer (Roles.arrs_of roles.abrr_arrs partition p))
    | None -> ());
    if roles.is_trr then begin
      if List.mem peer roles.my_trr_clients then
        replay out_clients Proto.From_trr always;
      if List.mem peer roles.trr_mesh then replay out_mesh Proto.Mesh always
    end;
    (match roles.partition with
    | Some partition ->
      replay out_arr Proto.From_arr (fun p ->
          List.exists
            (fun ap -> Roles.reflects_to t.env.config roles.abrr_arrs ~ap peer)
            (Roles.aps_holding partition p roles.arr_aps))
    | None -> ());
    Outbox.flush t.out
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
  t.roles <- Roles.derive t.env.config t.env.id;
  let new_roles = t.roles in
  if t.up then begin
    let dirty = Churn.batch () in
    (* ARR side: retire prefixes no longer in our APs (only [out_arr]
       and [managed_arr] can hold one that an old AP served). *)
    let retired =
      sorted_unique (fun f ->
          let note p =
            if Roles.serves old_roles p && not (Roles.serves new_roles p) then f p
          in
          Rib.iter (fun p _ -> note p) t.ribs.(out_arr);
          Adj_in.iter_prefixes note t.planes.(managed_arr))
    in
    List.iter
      (fun p ->
        let withdrawn = Path_id.drop_prefix t.ids.(ids_arr) p in
        if withdrawn <> [] then begin
          let old_aps =
            match old_roles.partition with
            | Some part -> Roles.aps_holding part p old_roles.arr_aps
            | None -> []
          in
          Roles.iter_reflect_targets t.env.config old_roles.abrr_arrs ~aps:old_aps
            (fun dst ->
              Outbox.enqueue t.out dst
                (Proto.From_arr,
                 { Proto.prefix = p; routes = []; withdrawn_ids = withdrawn }))
        end;
        if Rib.get t.ribs.(out_arr) p <> [] then rib_set t t.ribs.(out_arr) p [];
        (* one RIB touch per source cleared *)
        t.counters.rib_touches <-
          t.counters.rib_touches + Adj_in.clear_prefix t.planes.(managed_arr) p;
        Churn.mark_full dirty p)
      retired;
    t.counters.Counters.prefixes_moved_on_repartition <-
      t.counters.Counters.prefixes_moved_on_repartition + List.length retired;
    (* Client side: feed newly-responsible ARRs our exported set. *)
    (match (old_roles.partition, new_roles.partition) with
    | Some oldp, Some newp ->
      Rib.iter
        (fun p routes ->
          if routes <> [] then begin
            let old_arrs = Roles.arrs_of old_roles.abrr_arrs oldp p in
            List.iter
              (fun dst ->
                if not (List.mem dst old_arrs) then
                  Outbox.enqueue t.out dst
                    (Proto.To_arr, { Proto.prefix = p; routes; withdrawn_ids = [] }))
              (Roles.arrs_of new_roles.abrr_arrs newp p)
          end)
        t.ribs.(adv_arr)
    | _ -> ());
    run_batch t dirty;
    Outbox.flush t.out
  end

let set_down t =
  t.up <- false;
  Queue.clear t.inbox

(* Cold start: eBGP feeds must be re-injected by the caller, as a
   rebooted router would re-learn them. *)
let set_up_cold t =
  t.up <- true;
  wipe t

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* LPM straight off the Loc-RIB trie — no separate FIB copy. *)
let lookup t addr =
  match Rib.longest_match t.ribs.(loc_rib) addr with
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

let rib_in_managed t = entries t Managed_in
let rib_in_unmanaged t = entries t Unmanaged_in
let rib_in_entries t = rib_in_managed t + rib_in_unmanaged t
let rib_out_entries t = entries t Reflector_out
let rib_out_client_entries t = entries t Client_out
let loc_rib_entries t = entries t Loc
let ebgp_entries t = entries t Ebgp_in

let received_set t ~from p =
  let get plane = Adj_in.get t.planes.(plane) p from in
  get from_arr @ get from_trr @ get mesh_in @ get confed_in @ get from_rcp

let reflector_set t p = Rib.get t.ribs.(out_arr) p

let advertised_route t p =
  let get slot = Rib.get t.ribs.(slot) p in
  match get adv_arr @ get adv_trr @ get adv_mesh with [] -> None | r :: _ -> Some r

let known_prefixes t = sorted_unique (iter_tables t)

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)

type rib_dump = (Prefix.t * R.t list) list

type state = {
  st_ribs : rib_dump array;
  st_peer_tables : (int * rib_dump) list array;
  st_path_ids : Path_id.dump array;
  st_ebgp_neighbors : ((int * int) * Ipv4.t) list;
  st_inbox : input list;
  st_process_scheduled : bool;
  st_sessions : Outbox.session_state list;
  st_damping : Damping_table.entry_state list;
  st_counters : Counters.t;
  st_rejected_loops : int;
  st_up : bool;
}

(* [Rib.fold] runs in ascending prefix order already. *)
let dump_rib rib = List.rev (Rib.fold (fun p rs acc -> (p, rs) :: acc) rib [])

let dump_state t =
  {
    st_ribs = Array.map dump_rib t.ribs;
    st_peer_tables = Array.map Adj_in.dump t.planes;
    st_path_ids = Array.map Path_id.dump t.ids;
    st_ebgp_neighbors =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ebgp_neighbors []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    st_inbox = List.of_seq (Queue.to_seq t.inbox);
    st_process_scheduled = t.process_scheduled;
    st_sessions = Outbox.dump t.out;
    st_damping = Damping_table.dump t.damping;
    st_counters = Counters.copy t.counters;
    st_rejected_loops = t.rejected_loops;
    st_up = t.up;
  }

let load_state t st =
  if
    Array.length st.st_ribs <> Array.length t.ribs
    || Array.length st.st_peer_tables <> Array.length t.planes
    || Array.length st.st_path_ids <> Array.length t.ids
  then invalid_arg "Router.load_state: slot count mismatch";
  wipe t;
  Array.iteri
    (fun i d -> List.iter (fun (p, rs) -> Rib.set t.ribs.(i) p rs) d)
    st.st_ribs;
  Array.iteri
    (fun i d ->
      List.iter
        (fun (src, rd) ->
          List.iter (fun (p, rs) -> ignore (Adj_in.exchange t.planes.(i) p src rs)) rd)
        d)
    st.st_peer_tables;
  Array.iteri (fun i d -> Path_id.load t.ids.(i) d) st.st_path_ids;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.ebgp_neighbors k v)
    st.st_ebgp_neighbors;
  List.iter (fun input -> Queue.add input t.inbox) st.st_inbox;
  t.process_scheduled <- st.st_process_scheduled;
  Outbox.load t.out st.st_sessions;
  Damping_table.load t.damping st.st_damping;
  Counters.reset t.counters;
  Counters.add t.counters st.st_counters;
  t.rejected_loops <- st.st_rejected_loops;
  t.up <- st.st_up
