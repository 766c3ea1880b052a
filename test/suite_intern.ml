(* The weak intern tables of [Route] and [As_path] under the GC.

   Each case runs in a fresh domain, so its tables start empty and hold
   only what the case interns. Rounds intern attribute blocks (through
   [make_attrs], [update] and the snapshot entry reader) and AS paths,
   keep some of the results, drop the rest, and step the major GC
   between interns. Every result must carry exactly the fields asked
   for, be the block the test already holds for those fields, and no
   call may raise. After each round a full major collection leaves
   [Route.interned_attrs ()] equal to the blocks the test still holds.

   The pools include hash collisions: blocks that differ in one field
   (or, for the MED pair, two) and hash the same. A lookup that skipped
   a field would return the other block of its pair. Every field but
   ORIGIN and ORIGINATOR_ID has such a pair; on those two the hash is
   injective when the other fields are fixed, so no lookup can confuse
   blocks that differ only there. LOCAL_PREF 0 and [min_int] collide
   because the hash keeps 62 bits. *)

open Netaddr
open Bgp

type spec = {
  origin : Origin.t;
  segs : As_path.segment list;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int;
  originator_id : Ipv4.t option;
  cluster_list : Ipv4.t list;
  communities : Community.t list;
  ext_communities : Ext_community.t list;
}

let ip = Ipv4.of_string
let asns l = List.map Asn.of_int l
let comm n = Community.of_int32_bits n
let ext subtyp value = Ext_community.make ~typ:0 ~subtyp ~value

(* Two addresses with one [Ipv4.hash]. *)
let ip_a = ip "10.0.75.29"
let ip_b = ip "10.0.176.175"

let base =
  {
    origin = Origin.Igp;
    segs = [ As_path.Seq (asns [ 65001 ]) ];
    next_hop = ip "10.0.0.1";
    med = None;
    local_pref = 100;
    originator_id = None;
    cluster_list = [];
    communities = [];
    ext_communities = [];
  }

(* Path pairs with one hash: ASNs (31 * 1 + 0 = 31 * 0 + 31) and the
   segment type (Seq [40] and Set [9]). *)
let path_pairs =
  [
    ([ As_path.Seq (asns [ 1; 0 ]) ], [ As_path.Seq (asns [ 0; 31 ]) ]);
    ([ As_path.Seq (asns [ 40 ]) ], [ As_path.Set (asns [ 9 ]) ]);
  ]

let block_pairs =
  [
    ({ base with med = Some 5 }, { base with med = Some 4; local_pref = 131 });
    (base, { base with med = Some (-1) });
    ({ base with local_pref = 0 }, { base with local_pref = min_int });
    ({ base with next_hop = ip_a }, { base with next_hop = ip_b });
    ({ base with cluster_list = [ ip_a ] }, { base with cluster_list = [ ip_b ] });
    ( { base with communities = [ comm 100; comm 0 ] },
      { base with communities = [ comm 99; comm 31 ] } );
    ( { base with ext_communities = [ ext 1 0 ] },
      { base with ext_communities = [ ext 0 256 ] } );
  ]
  @ List.map
      (fun (s1, s2) -> ({ base with segs = s1 }, { base with segs = s2 }))
      path_pairs

let make s =
  Route.make_attrs ~origin:s.origin ~as_path:(As_path.of_segments s.segs)
    ~next_hop:s.next_hop ~med:s.med ~local_pref:s.local_pref
    ~originator_id:s.originator_id ~cluster_list:s.cluster_list
    ~communities:s.communities ~ext_communities:s.ext_communities ()

(* Every field but the communities, set through [Route.update] on a
   block that carries only those. *)
let update s =
  let r =
    Route.of_attrs ~prefix:Prefix.default
      (Route.make_attrs ~communities:s.communities ~next_hop:(ip "192.0.2.1") ())
  in
  Route.attrs
    (Route.update ~origin:s.origin ~as_path:(As_path.of_segments s.segs)
       ~next_hop:s.next_hop ~med:s.med ~local_pref:s.local_pref
       ~originator_id:s.originator_id ~cluster_list:s.cluster_list
       ~ext_communities:s.ext_communities r)

let wire_encodable s =
  (match s.med with Some m -> m >= 0 && m < 1 lsl 32 | None -> true)
  && s.local_pref >= 0 && s.local_pref < 1 lsl 32

let entry s =
  let a = make s in
  let b = Bytes.create (Wire.attrs_entry_size a) in
  Wire.write_attrs_entry a b 0;
  Bytes.unsafe_to_string b

let decode e =
  match Wire.read_attrs_entry e ~pos:0 ~len:(String.length e) with
  | Ok a -> a
  | Error err -> Alcotest.failf "entry rejected: %a" Wire.pp_error err

(* The path-attribute bytes of RFC 4271 §4.3, from the fields. *)
let expected_wire_len s =
  let attr payload = (if payload > 255 then 4 else 3) + payload in
  let seg_bytes =
    List.fold_left
      (fun n -> function
        | As_path.Seq l | As_path.Set l | As_path.Confed_seq l
        | As_path.Confed_set l ->
          n + 2 + (4 * List.length l))
      0 s.segs
  in
  let list_attr width = function [] -> 0 | l -> attr (width * List.length l) in
  attr 1 + attr seg_bytes + attr 4 + attr 4
  + (if s.med = None then 0 else attr 4)
  + (if s.originator_id = None then 0 else attr 4)
  + list_attr 4 s.cluster_list
  + list_attr 4 s.communities
  + list_attr 8 s.ext_communities

let fail_if cond fmt =
  Format.kasprintf (fun m -> if cond then QCheck.Test.fail_report m) fmt

let check_fields what s (a : Route.attrs) =
  let bad field = fail_if true "%s: field %s differs" what field in
  if not (Origin.equal a.Route.origin s.origin) then bad "origin";
  if As_path.segments a.Route.as_path <> s.segs then bad "as_path";
  if not (Ipv4.equal a.Route.next_hop s.next_hop) then bad "next_hop";
  if a.Route.med <> s.med then bad "med";
  if a.Route.local_pref <> s.local_pref then bad "local_pref";
  if not (Option.equal Ipv4.equal a.Route.originator_id s.originator_id) then
    bad "originator_id";
  if not (List.equal Ipv4.equal a.Route.cluster_list s.cluster_list) then
    bad "cluster_list";
  if not (List.equal Community.equal a.Route.communities s.communities) then
    bad "communities";
  if not (List.equal Ext_community.equal a.Route.ext_communities s.ext_communities)
  then bad "ext_communities";
  if Route.wire_len a <> expected_wire_len s then bad "wire_len"

let random_spec st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let path_pool =
    [ []; base.segs; [ As_path.Seq (asns [ 7; 8 ]); As_path.Set (asns [ 9; 10 ]) ] ]
    @ List.concat_map (fun (a, b) -> [ a; b ]) path_pairs
  in
  {
    origin = pick [ Origin.Igp; Origin.Egp; Origin.Incomplete ];
    segs = pick path_pool;
    next_hop = pick [ ip "10.0.0.1"; ip "10.0.0.2"; ip_a; ip_b ];
    med = pick [ None; Some 0; Some 4; Some 5; Some (-1) ];
    local_pref = pick [ 0; 100; 131; 200; min_int ];
    originator_id = pick [ None; Some (ip "10.0.0.9") ];
    cluster_list = pick [ []; [ ip_a ]; [ ip_b ]; [ ip_a; ip_b ] ];
    communities = pick [ []; [ comm 1 ]; [ comm 100; comm 0 ]; [ comm 99; comm 31 ] ];
    ext_communities =
      pick [ []; [ ext 1 0 ]; [ ext 0 256 ]; [ Ext_community.reflected ] ];
  }

let held_slots = 24
let rounds = 4
let interns_per_round = 60

let run_case seed =
  let st = Random.State.make [| seed |] in
  let specs =
    Array.of_list
      (List.concat_map (fun (a, b) -> [ a; b ]) block_pairs
      @ List.init 24 (fun _ -> random_spec st))
  in
  let entries =
    Array.map (fun s -> if wire_encodable s then Some (entry s) else None) specs
  in
  let paths =
    Array.of_list
      (List.concat_map (fun (a, b) -> [ a; b ]) path_pairs
      @ List.map (fun s -> s.segs) (Array.to_list specs))
  in
  let held : (spec * Route.attrs) option array = Array.make held_slots None in
  let held_paths : (As_path.segment list * As_path.t) option array =
    Array.make held_slots None
  in
  for round = 1 to rounds do
    for k = 1 to interns_per_round do
      let i = Random.State.int st (Array.length specs) in
      let s = specs.(i) in
      let a, how =
        match (Random.State.int st 3, entries.(i)) with
        | 0, _ -> (make s, "make_attrs")
        | 1, _ | 2, None -> (update s, "update")
        | 2, Some e -> (decode e, "entry reader")
        | _ -> assert false
      in
      let what = Printf.sprintf "round %d, intern %d (%s)" round k how in
      check_fields what s a;
      Array.iter
        (function
          | Some (s', a') when s' = s ->
            fail_if (a' != a) "%s: a second block for held fields" what
          | Some _ | None -> ())
        held;
      held.(Random.State.int st held_slots) <- Some (s, a);
      if Random.State.bool st then held.(Random.State.int st held_slots) <- None;
      let segs = paths.(Random.State.int st (Array.length paths)) in
      let p = As_path.of_segments segs in
      fail_if (As_path.segments p <> segs) "%s: path segments differ" what;
      Array.iter
        (function
          | Some (segs', p') when segs' = segs ->
            fail_if (p' != p) "%s: a second node for a held path" what
          | Some _ | None -> ())
        held_paths;
      held_paths.(Random.State.int st held_slots) <- Some (segs, p);
      if Random.State.bool st then
        held_paths.(Random.State.int st held_slots) <- None;
      match Random.State.int st 8 with
      | 0 -> ignore (Gc.major_slice 0)
      | 1 -> Gc.minor ()
      | _ -> ()
    done;
    Gc.full_major ();
    let live =
      Array.fold_left
        (fun acc -> function
          | Some (_, a) when not (List.memq a acc) -> a :: acc
          | Some _ | None -> acc)
        [] held
    in
    fail_if
      (Route.interned_attrs () <> List.length live)
      "round %d: %d interned blocks, %d held" round (Route.interned_attrs ())
      (List.length live)
  done;
  true

let test_pairs_collide () =
  Alcotest.(check int)
    "the address pair collides" (Ipv4.hash ip_a) (Ipv4.hash ip_b);
  List.iter
    (fun (s1, s2) ->
      Alcotest.(check int)
        "the block pair collides"
        (Route.attrs_hash (make s1))
        (Route.attrs_hash (make s2));
      Alcotest.(check bool) "two blocks" true (make s1 != make s2))
    block_pairs

(* The table itself, on boxes whose hashes collide on purpose: at most
   five distinct hashes over a table that starts at 8 slots, so every
   lookup walks a chain through other hashes and tombstones, and the
   table is rebuilt many times. *)
type box = { v : int }

let box_hash v = v mod 5

let box_intern t v =
  let h = box_hash v in
  let rec find i =
    let i = Intern.candidate t h i in
    if i < 0 then None
    else
      match Intern.get t i with
      | Some b as hit when b.v = v -> hit
      | Some _ | None -> find (Intern.next t i)
  in
  match find (Intern.home t h) with
  | Some b -> b
  | None ->
    let b = { v } in
    Intern.add t h b;
    b

let run_table_case seed =
  let st = Random.State.make [| seed |] in
  let t = Intern.create 8 in
  let held = Array.make 32 None in
  for round = 1 to 6 do
    for k = 1 to 200 do
      let v = Random.State.int st 64 in
      let b = box_intern t v in
      fail_if (b.v <> v) "round %d, op %d: box %d for %d" round k b.v v;
      Array.iter
        (function
          | Some b' when b'.v = v ->
            fail_if (b' != b) "round %d, op %d: a second box for %d" round k v
          | Some _ | None -> ())
        held;
      held.(Random.State.int st 32) <- Some b;
      if Random.State.int st 3 = 0 then held.(Random.State.int st 32) <- None;
      match Random.State.int st 16 with
      | 0 -> ignore (Gc.major_slice 0)
      | 1 -> Gc.minor ()
      | _ -> ()
    done;
    Gc.full_major ();
    let live =
      Array.fold_left
        (fun acc -> function
          | Some b when not (List.memq b acc) -> b :: acc
          | Some _ | None -> acc)
        [] held
    in
    fail_if
      (Intern.count t <> List.length live)
      "round %d: %d live boxes, %d held" round (Intern.count t)
      (List.length live)
  done;
  true

let prop_table =
  QCheck.Test.make ~name:"intern table: chains, tombstones, rebuilds" ~count:20
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    run_table_case

let prop_gc =
  QCheck.Test.make ~name:"re-intern under the GC: exact fields, one block"
    ~count:20
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      Domain.join (Domain.spawn (fun () -> run_case seed)))

let suite =
  ( "intern",
    [
      Alcotest.test_case "collision pairs collide" `Quick test_pairs_collide;
      QCheck_alcotest.to_alcotest prop_gc;
      QCheck_alcotest.to_alcotest prop_table;
    ] )
