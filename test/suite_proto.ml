open Netaddr
module Proto = Abrr_core.Proto

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = Prefix.of_string "20.0.0.0/16"

(* same attributes, distinct path ids: exercises wire-level grouping *)
let mk k =
  Bgp.Route.make ~path_id:k ~prefix ~next_hop:(Ipv4.of_int 0x0A00_0001) ()

let test_delta () =
  let d = Proto.delta prefix [ mk 1 ] in
  check_bool "announce" false (Proto.is_withdraw d);
  let w = Proto.delta ~withdrawn_ids:[ 1 ] prefix [] in
  check_bool "withdraw" true (Proto.is_withdraw w)

let test_to_update () =
  let u =
    Proto.to_update
      [ Proto.delta prefix [ mk 1; mk 2 ]; Proto.delta ~withdrawn_ids:[ 7 ] prefix [] ]
  in
  check_int "announced" 2 (List.length u.Bgp.Msg.announced);
  check_int "withdrawn" 1 (List.length u.Bgp.Msg.withdrawn)

let test_wire_size () =
  let bytes1, msgs1 = Proto.wire_size ~add_paths:true [ Proto.delta prefix [ mk 1 ] ] in
  let bytes2, msgs2 =
    Proto.wire_size ~add_paths:true [ Proto.delta prefix [ mk 1; mk 2 ] ]
  in
  check_bool "positive" true (bytes1 > 0 && msgs1 = 1);
  check_bool "more routes, more bytes" true (bytes2 > bytes1);
  check_int "same attrs share a message" 1 msgs2;
  (* add-paths carries 4 extra bytes per NLRI *)
  let plain, _ = Proto.wire_size ~add_paths:false [ Proto.delta prefix [ mk 1 ] ] in
  check_int "path id overhead" 4 (bytes1 - plain)

let test_channel_tags_distinct () =
  let tags =
    List.map Proto.channel_tag
      [ Proto.Mesh; Proto.To_trr; Proto.To_arr; Proto.From_trr; Proto.From_arr ]
  in
  check_int "distinct" 5 (List.length (List.sort_uniq Int.compare tags))

let prefix2 = Prefix.of_string "21.0.0.0/16"

let test_coalesce_last_wins () =
  (* three updates of one (channel, prefix) key in a single delivery:
     only the last survives, since apply_item replaces the stored set *)
  let items =
    [
      (Proto.Mesh, Proto.delta prefix [ mk 1 ]);
      (Proto.Mesh, Proto.delta prefix [ mk 2 ]);
      (Proto.Mesh, Proto.delta ~withdrawn_ids:[ 2 ] prefix []);
    ]
  in
  match Proto.coalesce items with
  | [ (Proto.Mesh, d) ] -> check_bool "last wins" true (Proto.is_withdraw d)
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l)

let test_coalesce_keys_independent () =
  (* distinct prefixes and distinct channels never coalesce with each
     other, and the surviving items keep their relative order *)
  let items =
    [
      (Proto.Mesh, Proto.delta prefix [ mk 1 ]);
      (Proto.Mesh, Proto.delta prefix2 [ mk 1 ]);
      (Proto.To_trr, Proto.delta prefix [ mk 3 ]);
      (Proto.Mesh, Proto.delta prefix [ mk 2 ]);
    ]
  in
  match Proto.coalesce items with
  | [ (Proto.Mesh, a); (Proto.To_trr, b); (Proto.Mesh, c) ] ->
    check_bool "prefix2 untouched" true (Prefix.equal a.Proto.prefix prefix2);
    check_bool "other channel untouched" true (Prefix.equal b.Proto.prefix prefix);
    check_bool "mesh keeps final" true
      (match c.Proto.routes with
      | [ r ] -> r.Bgp.Route.path_id = 2
      | _ -> false)
  | l -> Alcotest.failf "expected 3 items, got %d" (List.length l)

let test_coalesce_identity () =
  (* zero- and one-item deliveries come back physically unchanged *)
  check_bool "empty" true (Proto.coalesce [] = []);
  let one = [ (Proto.Mesh, Proto.delta prefix [ mk 1 ]) ] in
  check_bool "singleton" true (Proto.coalesce one == one)

(* Random injector streams: encoded item lists over a few channels and
   prefixes, mixing announces, set replacements and withdrawals — the
   kind of churn a flapping session (or a damping reinstatement)
   delivers in one batch. *)
let gen_items =
  let channels = [| Proto.Mesh; Proto.To_arr; Proto.From_arr; Proto.To_trr |] in
  let prefixes =
    [| prefix; prefix2; Prefix.of_string "30.0.0.0/14";
       Prefix.of_string "40.4.0.0/18" |]
  in
  QCheck.Gen.(
    list_size (int_bound 40)
      (map
         (fun (c, p, ids) ->
           let routes = List.map mk ids in
           ( channels.(c mod Array.length channels),
             Proto.delta
               ~withdrawn_ids:(if routes = [] then [ 0 ] else [])
               prefixes.(p mod Array.length prefixes)
               routes ))
         (triple (int_bound 3) (int_bound 3) (list_size (int_bound 3) (int_range 1 5)))))

let arb_items = QCheck.make ~print:(fun l -> Printf.sprintf "<%d items>" (List.length l)) gen_items

let key (c, (d : Proto.delta)) = (Proto.channel_tag c, Prefix.to_key d.Proto.prefix)

(* The receiver treats each item as a full route-set replacement for its
   (channel, prefix) key, so folding a delivery into a map is its
   semantics. Coalescing must leave that fold's result unchanged. *)
let fold_state items =
  let tbl = Hashtbl.create 16 in
  List.iter (fun it -> Hashtbl.replace tbl (key it) (snd it)) items;
  List.sort compare
    (Hashtbl.fold (fun k (d : Proto.delta) acc ->
         (k, List.map (fun (r : Bgp.Route.t) -> r.Bgp.Route.path_id) d.Proto.routes)
         :: acc)
       tbl [])

let prop_coalesce_preserves_apply =
  QCheck.Test.make ~name:"coalesce preserves replace-map semantics" ~count:300
    arb_items (fun items -> fold_state (Proto.coalesce items) = fold_state items)

let prop_coalesce_idempotent =
  QCheck.Test.make ~name:"coalesce is idempotent" ~count:300 arb_items
    (fun items ->
      let once = Proto.coalesce items in
      Proto.coalesce once = once)

let prop_coalesce_one_item_per_key =
  QCheck.Test.make ~name:"coalesce leaves one item per key, order kept"
    ~count:300 arb_items (fun items ->
      let out = Proto.coalesce items in
      let keys = List.map key out in
      List.length (List.sort_uniq compare keys) = List.length keys
      &&
      (* survivors appear in the order of their key's last occurrence *)
      let last_index k =
        snd
          (List.fold_left
             (fun (i, best) it -> (i + 1, if key it = k then i else best))
             (0, -1) items)
      in
      let idx = List.map last_index keys in
      List.sort compare idx = idx)

(* Reference: [coalesce] as a hash table over the reversed list, the
   algorithm for any order. *)
let reference_coalesce items =
  match items with
  | [] | [ _ ] -> items
  | _ ->
    let seen = Hashtbl.create 16 in
    let keep =
      List.filter
        (fun it ->
          if Hashtbl.mem seen (key it) then false
          else begin
            Hashtbl.add seen (key it) ();
            true
          end)
        (List.rev items)
    in
    List.rev keep

let by_key a b = compare (key a) (key b)

(* The three shapes a delivery takes: keys strictly ascending (a sorted
   non-self batch), ascending with repeats, and in any order (a
   self-send). The generator reuses each prefix across channels. *)
let prop_coalesce_matches_reference shape name reorder =
  QCheck.Test.make ~name:("coalesce = Hashtbl reference, " ^ name) ~count:300 arb_items
    (fun items ->
      let items = reorder items in
      let out = Proto.coalesce items in
      List.equal ( == ) out (reference_coalesce items)
      && (shape <> `Strict || out == items))

let prop_coalesce_strict =
  prop_coalesce_matches_reference `Strict "strictly ascending" (List.sort_uniq by_key)

let prop_coalesce_runs =
  prop_coalesce_matches_reference `Runs "ascending with repeats" (List.stable_sort by_key)

let prop_coalesce_unsorted = prop_coalesce_matches_reference `Any "any order" Fun.id

(* A sorted delivery comes back as it is, with nothing allocated. *)
let test_coalesce_sorted_allocates_nothing () =
  let items =
    List.init 64 (fun i ->
        ( (if i < 32 then Proto.Mesh else Proto.From_arr),
          Proto.delta (Prefix.make (Ipv4.of_int ((i mod 32) lsl 16)) 16) [ mk i ] ))
  in
  ignore (Proto.coalesce items);
  let before = Gc.minor_words () in
  let out = Proto.coalesce items in
  let words = Gc.minor_words () -. before in
  check_bool "the list itself" true (out == items);
  if words > 0. then Alcotest.failf "coalesce allocated %.0f words" words

(* --- wire sizing against the encoder ------------------------------- *)

(* A pool of attribute blocks: the first few are "hot" (half of all
   routes pick one of them) and a quarter of all blocks carry four long
   AS_SEQUENCE segments, so a hot group often fills several 4096-byte
   messages. A block's spec is plain data; [build_block] interns it in
   whichever domain calls it. *)
type block_spec = {
  segs : int list;  (* ASNs per AS_SEQUENCE segment *)
  b_med : int option;
  n_comms : int;
  n_clusters : int;
  reflected : bool;
  foreign : bool;  (* also re-created in a second domain *)
}

let build_block k (b : block_spec) =
  let asn i = Bgp.Asn.of_int (64_512 + i) in
  let path =
    Bgp.As_path.of_segments
      (List.mapi
         (fun j n -> Bgp.As_path.Seq (List.init n (fun i -> asn ((100 * j) + i + k))))
         b.segs)
  in
  Bgp.Route.make_attrs ~as_path:path ~med:b.b_med
    ~communities:
      (List.init b.n_comms (fun i -> Bgp.Community.make 65_000 (i + k)))
    ~cluster_list:(List.init b.n_clusters (fun i -> Ipv4.of_int (0x0B00_0000 + i)))
    ~ext_communities:(if b.reflected then [ Bgp.Ext_community.reflected ] else [])
    ~next_hop:(Ipv4.of_int (0x0A00_0000 + k))
    ()

let gen_block_spec =
  QCheck.Gen.(
    let* big = int_bound 3 in
    let* segs =
      if big = 0 then list_repeat 4 (int_range 200 240)
      else list_size (int_bound 2) (int_bound 12)
    in
    let* b_med = opt (int_bound 1000) in
    let* n_comms = int_bound 3 in
    let* n_clusters = int_bound 3 in
    let* reflected = bool in
    let* foreign = bool in
    return { segs; b_med; n_comms; n_clusters; reflected; foreign })

(* A delta: its prefix (address byte, length), its routes (block pick,
   path id, use the foreign copy) and its withdrawn path ids. *)
type delta_spec = {
  p_byte : int;
  p_len : int;
  routes : (int * int * bool) list;
  wd_ids : int list;
}

type sizing_case = { blocks : block_spec array; deltas : delta_spec list }

let gen_sizing_case =
  QCheck.Gen.(
    let* nblocks = int_range 1 150 in
    let* blocks = array_repeat nblocks gen_block_spec in
    let pick =
      let* hot = bool in
      if hot then int_bound (min 3 (nblocks - 1)) else int_bound (nblocks - 1)
    in
    let gen_delta =
      let* p_byte = int_bound 255 in
      let* p_len = int_range 8 32 in
      let* routes = list_size (int_bound 15) (triple pick (int_bound 1000) bool) in
      let* wd_ids =
        (* now and then a mass withdrawal, so withdrawals fill messages *)
        list_size (frequency [ (9, int_bound 4); (1, int_range 50 200) ]) (int_bound 1000)
      in
      return { p_byte; p_len; routes; wd_ids }
    in
    let* deltas = list_size (int_bound 80) gen_delta in
    return { blocks; deltas })

let arb_sizing_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "<%d blocks, %d deltas, %d routes>" (Array.length c.blocks)
        (List.length c.deltas)
        (List.fold_left (fun n d -> n + List.length d.routes) 0 c.deltas))
    gen_sizing_case

(* Build the case's deltas. Foreign blocks come from a second domain's
   intern table: equal in structure to the local copy, not physically. *)
let build_deltas c =
  let local = Array.mapi build_block c.blocks in
  let foreign =
    Domain.join
      (Domain.spawn (fun () ->
           Array.mapi
             (fun k b -> if b.foreign then Some (build_block k b) else None)
             c.blocks))
  in
  List.map
    (fun d ->
      let p = Prefix.make (Ipv4.of_octets 20 d.p_byte 7 9) d.p_len in
      let routes =
        List.map
          (fun (k, path_id, use_foreign) ->
            let block =
              match foreign.(k) with
              | Some a when use_foreign -> a
              | Some _ | None -> local.(k)
            in
            Bgp.Route.of_attrs ~path_id ~prefix:p block)
          d.routes
      in
      Proto.delta ~withdrawn_ids:d.wd_ids p routes)
    c.deltas

let encoded ~add_paths ds =
  let msgs = Bgp.Wire.encode ~add_paths (Bgp.Msg.Update (Proto.to_update ds)) in
  (List.fold_left (fun n b -> n + Bytes.length b) 0 msgs, List.length msgs)

(* Does some attribute group fill more than one message? [msgs] counts
   at most one message per group and one per 452 withdrawals (a
   withdrawal NLRI is at most 9 bytes) unless a group split. *)
let distinct_blocks ds =
  List.length
    (List.sort_uniq Int.compare
       (List.concat_map
          (fun d ->
            List.map (fun r -> Bgp.Route.attrs_hash (Bgp.Route.attrs r)) d.Proto.routes)
          ds))

let splits_a_group ds ~msgs =
  let groups = distinct_blocks ds in
  let withdrawals =
    List.fold_left (fun n d -> n + List.length d.Proto.withdrawn_ids) 0 ds
  in
  msgs > groups + ((withdrawals + 451) / 452)

(* Each case is sized twice: here, where the scratch table has long
   grown, and in a fresh domain, whose table starts small enough that
   more than 64 blocks make it grow in the middle of the update. *)
let prop_wire_size_matches_encode =
  QCheck.Test.make ~name:"wire_size = encode (shared blocks, split groups)"
    ~count:200 arb_sizing_case (fun c ->
      let ds = build_deltas c in
      List.for_all
        (fun add_paths ->
          let expected = encoded ~add_paths ds in
          Proto.wire_size ~add_paths ds = expected
          && Domain.join (Domain.spawn (fun () -> Proto.wire_size ~add_paths ds))
             = expected)
        [ false; true ])

(* The sizer's table is domain-local scratch: two domains sizing the
   same inputs at once must each get the serial results. The fixed-seed
   cases also show the generator's reach: one of them splits a group
   across messages, and the serial results match the encoder. *)
let test_wire_size_two_domains () =
  let rand = Random.State.make [| 16 |] in
  let cases =
    List.init 40 (fun _ -> build_deltas (QCheck.Gen.generate1 ~rand gen_sizing_case))
  in
  let size_all () =
    List.concat_map
      (fun ds -> [ Proto.wire_size ~add_paths:false ds; Proto.wire_size ~add_paths:true ds ])
      cases
  in
  let serial = size_all () in
  check_bool "serial = encode" true
    (serial
    = List.concat_map
        (fun ds -> [ encoded ~add_paths:false ds; encoded ~add_paths:true ds ])
        cases);
  check_bool "some case has more than 64 blocks" true
    (List.exists (fun ds -> distinct_blocks ds > 64) cases);
  check_bool "some case splits a group" true
    (List.exists
       (fun ds -> splits_a_group ds ~msgs:(snd (encoded ~add_paths:true ds)))
       cases);
  let a = Domain.spawn size_all and b = Domain.spawn size_all in
  let ra = Domain.join a and rb = Domain.join b in
  check_bool "domain 1 = serial" true (ra = serial);
  check_bool "domain 2 = serial" true (rb = serial)

(* Sizing a transmission allocates only its result pair: a 64-route
   delta list, one block per route, after the scratch has warmed up. *)
let test_wire_size_allocation () =
  let ds =
    List.init 16 (fun i ->
        let p = Prefix.make (Ipv4.of_octets 30 i 0 0) 16 in
        Proto.delta ~withdrawn_ids:[ i ] p
          (List.init 4 (fun j ->
               Bgp.Route.make ~path_id:j ~med:(Some ((4 * i) + j)) ~prefix:p
                 ~next_hop:(Ipv4.of_int 0x0A00_0001) ())))
  in
  ignore (Proto.wire_size ~add_paths:true ds);
  let before = Gc.minor_words () in
  let r = Proto.wire_size ~add_paths:true ds in
  let words = Gc.minor_words () -. before in
  check_bool "sized" true (fst r > 0);
  if words >= 64. then Alcotest.failf "wire_size allocated %.0f words" words

(* The scratch table must not keep a block alive after the call: the
   weak intern table's population is the sharing statistic
   [Route.interned_attrs] reports. *)
let size_fresh_blocks () =
  let p = Prefix.of_string "31.0.0.0/16" in
  let ds =
    [
      Proto.delta p
        (List.init 100 (fun j ->
             Bgp.Route.make ~path_id:j ~med:(Some (7_000_000 + j)) ~prefix:p
               ~next_hop:(Ipv4.of_int 0x0A00_0002) ()));
    ]
  in
  ignore (Sys.opaque_identity (Proto.wire_size ~add_paths:true ds))

let test_wire_size_keeps_no_block () =
  Gc.full_major ();
  let before = Bgp.Route.interned_attrs () in
  size_fresh_blocks ();
  Gc.full_major ();
  let after = Bgp.Route.interned_attrs () in
  if after > before then
    Alcotest.failf "%d blocks outlived the sizing call" (after - before)

let suite =
  ( "proto",
    [
      Alcotest.test_case "delta" `Quick test_delta;
      Alcotest.test_case "to_update" `Quick test_to_update;
      Alcotest.test_case "wire size" `Quick test_wire_size;
      Alcotest.test_case "channel tags" `Quick test_channel_tags_distinct;
      Alcotest.test_case "coalesce: last wins per key" `Quick
        test_coalesce_last_wins;
      Alcotest.test_case "coalesce: keys independent, order kept" `Quick
        test_coalesce_keys_independent;
      Alcotest.test_case "coalesce: identity on small lists" `Quick
        test_coalesce_identity;
      QCheck_alcotest.to_alcotest prop_coalesce_preserves_apply;
      QCheck_alcotest.to_alcotest prop_coalesce_idempotent;
      QCheck_alcotest.to_alcotest prop_coalesce_one_item_per_key;
      QCheck_alcotest.to_alcotest prop_coalesce_strict;
      QCheck_alcotest.to_alcotest prop_coalesce_runs;
      QCheck_alcotest.to_alcotest prop_coalesce_unsorted;
      Alcotest.test_case "coalesce: sorted delivery allocates nothing" `Quick
        test_coalesce_sorted_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_wire_size_matches_encode;
      Alcotest.test_case "wire size: two domains = serial" `Quick
        test_wire_size_two_domains;
      Alcotest.test_case "wire size: allocation bound" `Quick
        test_wire_size_allocation;
      Alcotest.test_case "wire size: scratch keeps no block alive" `Quick
        test_wire_size_keeps_no_block;
    ] )
