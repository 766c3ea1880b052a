open Netaddr

(* Path attributes are hash-consed into immutable {e attribute blocks}:
   within a domain, structurally equal attribute sets share one physical
   record, so the same block sits in every Adj-RIB-In / Loc-RIB /
   Adj-RIB-Out that stores a route carrying it (across all routers of a
   simulation — they share the domain's heap).  A route value is then a
   small three-field {e head} (prefix, add-paths id, block pointer):
   storing a route in another table costs the head and the table slot,
   never a second copy of the attributes.  See SCALING.md for the
   bytes/route accounting this enables. *)

type attrs = {
  origin : Origin.t;
  as_path : As_path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int;
  originator_id : Ipv4.t option;
  cluster_list : Ipv4.t list;
  communities : Community.t list;
  ext_communities : Ext_community.t list;
  ahash : int;  (* structural hash over every field above *)
  wire_len : int;  (* encoded path-attribute length, see [compute_wire_len] *)
}

type t = { prefix : Prefix.t; path_id : int; attrs : attrs }

let default_local_pref = 100

(* ------------------------------------------------------------------ *)
(* Attribute-block interning                                           *)

let hash_opt h = function None -> h * 31 | Some v -> (h * 31) + 1 + v

let hash_ipv4_list h l =
  List.fold_left (fun h ip -> (h * 31) + Ipv4.hash ip) h l

let hash_fields origin as_path next_hop med local_pref originator_id
    cluster_list communities ext_communities =
  let h = Origin.rank origin in
  let h = (h * 31) + As_path.hash as_path in
  let h = (h * 31) + Ipv4.hash next_hop in
  let h = hash_opt h med in
  let h = (h * 31) + local_pref in
  let h =
    match originator_id with
    | None -> h * 31
    | Some o -> (h * 31) + 1 + Ipv4.to_int o
  in
  let h = hash_ipv4_list h cluster_list in
  let h =
    List.fold_left (fun h c -> (h * 31) + Community.to_int c) h communities
  in
  let h =
    List.fold_left
      (fun h (e : Ext_community.t) ->
        (h * 31) + (e.Ext_community.typ lsl 16) + (e.Ext_community.subtyp lsl 8)
        + e.Ext_community.value)
      h ext_communities
  in
  h land max_int

(* The bytes [Wire.encode] spends on this block's path attributes:
   flags, type and (extended, above 255 bytes) length, then the payload
   of each attribute present.  [Wire.encode] stays the reference; a
   differential test pins the two together. *)
let attr_size payload = (if payload > 0xFF then 4 else 3) + payload

let compute_wire_len as_path med originator_id cluster_list communities
    ext_communities =
  let as_path_payload =
    List.fold_left
      (fun n (s : As_path.segment) ->
        match s with
        | As_path.Set l | As_path.Seq l | As_path.Confed_seq l
        | As_path.Confed_set l ->
          n + 2 + (4 * List.length l))
      0
      (As_path.segments as_path)
  in
  attr_size 1 (* origin *)
  + attr_size as_path_payload
  + attr_size 4 (* next hop *)
  + (match med with None -> 0 | Some _ -> attr_size 4)
  + attr_size 4 (* local pref *)
  + (match communities with [] -> 0 | cs -> attr_size (4 * List.length cs))
  + (match originator_id with None -> 0 | Some _ -> attr_size 4)
  + (match cluster_list with [] -> 0 | ids -> attr_size (4 * List.length ids))
  + (match ext_communities with
    | [] -> 0
    | ecs -> attr_size (8 * List.length ecs))

(* Does block [b] carry exactly these fields?  Every field is compared:
   the hash collides easily (MED [Some 5] with LOCAL_PREF 100 hashes as
   MED [Some 4] with 131), and a hit on a block that differs would
   change the routing outcome. *)
let fields_equal b origin as_path next_hop med local_pref originator_id
    cluster_list communities ext_communities =
  Origin.equal b.origin origin
  && As_path.equal b.as_path as_path
  && Ipv4.equal b.next_hop next_hop
  && Option.equal Int.equal b.med med
  && Int.equal b.local_pref local_pref
  && Option.equal Ipv4.equal b.originator_id originator_id
  && List.equal Ipv4.equal b.cluster_list cluster_list
  && List.equal Community.equal b.communities communities
  && List.equal Ext_community.equal b.ext_communities ext_communities

let attrs_structural_equal a b =
  fields_equal a b.origin b.as_path b.next_hop b.med b.local_pref
    b.originator_id b.cluster_list b.communities b.ext_communities

(* One intern table per domain (the {!As_path} arrangement): simulations
   are single-domain so no locking is needed, and the weak table lets
   the GC reclaim blocks no RIB references anymore.  Cross-domain
   comparisons fall back to the structural path in {!attrs_equal}. *)
let table : attrs Intern.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Intern.create 1024)

let rec lookup tbl h i origin as_path next_hop med local_pref originator_id
    cluster_list communities ext_communities =
  let i = Intern.candidate tbl h i in
  if i < 0 then None
  else
    match Intern.get tbl i with
    | Some b as hit
      when fields_equal b origin as_path next_hop med local_pref
             originator_id cluster_list communities ext_communities ->
      hit
    | Some _ | None ->
      lookup tbl h (Intern.next tbl i) origin as_path next_hop med local_pref
        originator_id cluster_list communities ext_communities

(* The interned block with these fields: a hit returns the block in the
   table, and only a miss builds one. *)
let intern origin as_path next_hop med local_pref originator_id cluster_list
    communities ext_communities =
  let h =
    hash_fields origin as_path next_hop med local_pref originator_id
      cluster_list communities ext_communities
  in
  let tbl = Domain.DLS.get table in
  match
    lookup tbl h (Intern.home tbl h) origin as_path next_hop med local_pref
      originator_id cluster_list communities ext_communities
  with
  | Some b -> b
  | None ->
    let b =
      {
        origin;
        as_path;
        next_hop;
        med;
        local_pref;
        originator_id;
        cluster_list;
        communities;
        ext_communities;
        ahash = h;
        wire_len =
          compute_wire_len as_path med originator_id cluster_list communities
            ext_communities;
      }
    in
    Intern.add tbl h b;
    b

let make_attrs ?(origin = Origin.Igp) ?(as_path = As_path.empty) ?(med = None)
    ?(local_pref = default_local_pref) ?(originator_id = None)
    ?(cluster_list = []) ?(communities = []) ?(ext_communities = []) ~next_hop
    () =
  intern origin as_path next_hop med local_pref originator_id cluster_list
    communities ext_communities

(* Never interned and never carried by a route; its [ahash] of -1 is
   outside the range of real hashes, so it equals no real block. *)
let dummy_attrs =
  {
    origin = Origin.Igp;
    as_path = As_path.empty;
    next_hop = Ipv4.of_int 0;
    med = None;
    local_pref = default_local_pref;
    originator_id = None;
    cluster_list = [];
    communities = [];
    ext_communities = [];
    ahash = -1;
    wire_len = 0;
  }

let attrs_equal a b = a == b || (a.ahash = b.ahash && attrs_structural_equal a b)
let attrs_hash a = a.ahash
let wire_len a = a.wire_len
let interned_attrs () = Intern.count (Domain.DLS.get table)

(* ------------------------------------------------------------------ *)
(* Heads                                                               *)

let make ?(path_id = 0) ?origin ?as_path ?med ?local_pref ?originator_id
    ?cluster_list ?communities ?ext_communities ~prefix ~next_hop () =
  {
    prefix;
    path_id;
    attrs =
      make_attrs ?origin ?as_path ?med ?local_pref ?originator_id
        ?cluster_list ?communities ?ext_communities ~next_hop ();
  }

let of_attrs ?(path_id = 0) ~prefix attrs = { prefix; path_id; attrs }
let attrs t = t.attrs

let origin t = t.attrs.origin
let as_path t = t.attrs.as_path
let next_hop t = t.attrs.next_hop
let med t = t.attrs.med
let local_pref t = t.attrs.local_pref
let originator_id t = t.attrs.originator_id
let cluster_list t = t.attrs.cluster_list
let communities t = t.attrs.communities
let ext_communities t = t.attrs.ext_communities

let with_path_id path_id t = if t.path_id = path_id then t else { t with path_id }
let with_prefix prefix t = { t with prefix }

(* One functional update = at most one intern, however many fields
   change, and none when every field is physically the old one; [t]
   itself when its path id is kept too. *)
let derive ~path_id ~origin ~as_path ~next_hop ~med ~local_pref ~originator_id
    ~cluster_list ~ext_communities t =
  let a = t.attrs in
  let attrs =
    if
      origin == a.origin && as_path == a.as_path && next_hop == a.next_hop
      && med == a.med && local_pref == a.local_pref
      && originator_id == a.originator_id
      && cluster_list == a.cluster_list
      && ext_communities == a.ext_communities
    then a
    else
      intern origin as_path next_hop med local_pref originator_id cluster_list
        a.communities ext_communities
  in
  if path_id = t.path_id && attrs == a then t else { t with path_id; attrs }

let update ?path_id ?origin ?as_path ?next_hop ?med ?local_pref ?originator_id
    ?cluster_list ?ext_communities t =
  let a = t.attrs in
  let field v = function None -> v | Some v' -> v' in
  derive ~path_id:(field t.path_id path_id) ~origin:(field a.origin origin)
    ~as_path:(field a.as_path as_path) ~next_hop:(field a.next_hop next_hop)
    ~med:(field a.med med) ~local_pref:(field a.local_pref local_pref)
    ~originator_id:(field a.originator_id originator_id)
    ~cluster_list:(field a.cluster_list cluster_list)
    ~ext_communities:(field a.ext_communities ext_communities) t

let is_reflected t =
  List.exists Ext_community.is_reflected t.attrs.ext_communities

let rec mem_ipv4 id = function
  | [] -> false
  | x :: xs -> Ipv4.equal id x || mem_ipv4 id xs

let in_cluster_list id t = mem_ipv4 id t.attrs.cluster_list
let neighbor_as t = As_path.first_as t.attrs.as_path

let compare_opt cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

(* Field order matches the pre-interning implementation: the decision
   kernel's final tie-break depends on it, so changing it would change
   simulation outcomes. *)
let compare_attr_blocks a b =
  if a == b then 0
  else
    let c = Origin.compare a.origin b.origin in
    if c <> 0 then c
    else
      let c = As_path.compare a.as_path b.as_path in
      if c <> 0 then c
      else
        let c = Ipv4.compare a.next_hop b.next_hop in
        if c <> 0 then c
        else
          let c = compare_opt Int.compare a.med b.med in
          if c <> 0 then c
          else
            let c = Int.compare a.local_pref b.local_pref in
            if c <> 0 then c
            else
              let c = compare_opt Ipv4.compare a.originator_id b.originator_id in
              if c <> 0 then c
              else
                let c = List.compare Ipv4.compare a.cluster_list b.cluster_list in
                if c <> 0 then c
                else
                  let c =
                    List.compare Community.compare a.communities b.communities
                  in
                  if c <> 0 then c
                  else
                    List.compare Ext_community.compare a.ext_communities
                      b.ext_communities

let compare_attrs a b =
  if a == b then 0
  else
    let c = Prefix.compare a.prefix b.prefix in
    if c <> 0 then c else compare_attr_blocks a.attrs b.attrs

let same_path a b = compare_attrs a b = 0

let compare a b =
  if a == b then 0
  else
    let c = Int.compare a.path_id b.path_id in
    if c <> 0 then c else compare_attrs a b

let equal a b =
  a == b
  || (a.path_id = b.path_id
     && Prefix.equal a.prefix b.prefix
     && attrs_equal a.attrs b.attrs)

let pp fmt t =
  Format.fprintf fmt "%a[id=%d] lp=%d path=[%a] origin=%a nh=%a med=%s"
    Prefix.pp t.prefix t.path_id t.attrs.local_pref As_path.pp t.attrs.as_path
    Origin.pp t.attrs.origin Ipv4.pp t.attrs.next_hop
    (match t.attrs.med with None -> "-" | Some m -> string_of_int m)
