open Netaddr
open Bgp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = Prefix.of_string "20.0.0.0/16"
let nh = Ipv4.of_string "10.0.0.1"

let test_defaults () =
  let r = Route.make ~prefix ~next_hop:nh () in
  check_int "path id" 0 r.Route.path_id;
  check_int "local pref" Route.default_local_pref (Route.local_pref r);
  check_bool "origin" true (Route.origin r = Origin.Igp);
  check_bool "no med" true (Route.med r = None);
  check_bool "empty path" true (As_path.equal (Route.as_path r) As_path.empty);
  check_bool "no reflection" true
    (Route.originator_id r = None && Route.cluster_list r = [])

let test_reflected_marker () =
  let r = Route.make ~prefix ~next_hop:nh () in
  check_bool "initially unmarked" false (Route.is_reflected r);
  let other = Ext_community.make ~typ:0 ~subtyp:1 ~value:0 in
  let r' = Route.update ~ext_communities:[ other; Ext_community.reflected ] r in
  check_bool "marked" true (Route.is_reflected r');
  check_bool "another extended community is no marker" false
    (Route.is_reflected (Route.update ~ext_communities:[ other ] r))

let test_cluster_list () =
  let c1 = Ipv4.of_string "192.168.0.1" and c2 = Ipv4.of_string "192.168.0.2" in
  let r = Route.make ~prefix ~next_hop:nh () in
  let r = Route.update ~cluster_list:[ c2; c1 ] r in
  check_bool "member" true (Route.in_cluster_list c1 r);
  check_bool "non-member" false
    (Route.in_cluster_list (Ipv4.of_string "192.168.0.9") r)

let test_neighbor_as () =
  let r =
    Route.make ~as_path:(As_path.of_asns [ Asn.of_int 5; Asn.of_int 6 ]) ~prefix
      ~next_hop:nh ()
  in
  check_bool "first as" true (Route.neighbor_as r = Some (Asn.of_int 5));
  let local = Route.make ~prefix ~next_hop:nh () in
  check_bool "local none" true (Route.neighbor_as local = None)

let test_same_path_ignores_path_id () =
  let r = Route.make ~med:(Some 5) ~prefix ~next_hop:nh () in
  let r' = Route.with_path_id 7 r in
  check_bool "same path" true (Route.same_path r r');
  check_bool "not equal" false (Route.equal r r');
  let r'' = Route.update ~med:(Some 6) r in
  check_bool "different med" false (Route.same_path r r'')

let test_with_prefix () =
  let r = Route.make ~prefix ~next_hop:nh () in
  let q = Prefix.of_string "30.0.0.0/8" in
  check_bool "replaced" true (Prefix.equal (Route.with_prefix q r).Route.prefix q)

let test_compare_total_order () =
  let r1 = Route.make ~prefix ~next_hop:nh () in
  let r2 = Route.make ~med:(Some 1) ~prefix ~next_hop:nh () in
  check_bool "reflexive" true (Route.compare r1 r1 = 0);
  check_bool "antisym" true (Route.compare r1 r2 = -Route.compare r2 r1)

(* --- Attribute-block interning ---------------------------------------
   Within a domain, structurally equal attribute blocks must be the
   SAME record (physical equality), however they were built. *)

let test_interning_shares_blocks () =
  let build () =
    Route.make
      ~as_path:(As_path.of_asns [ Asn.of_int 5; Asn.of_int 6 ])
      ~med:(Some 40) ~communities:[ Community.make 65000 7 ] ~prefix
      ~next_hop:nh ()
  in
  let r1 = build () and r2 = build () in
  check_bool "equal construction shares one block" true
    (Route.attrs r1 == Route.attrs r2);
  (* a different prefix/path_id is a different head over the same block *)
  let r3 =
    Route.with_path_id 9 (Route.with_prefix (Prefix.of_string "30.0.0.0/8") r1)
  in
  check_bool "head changes keep the block" true (Route.attrs r1 == Route.attrs r3);
  (* update that changes nothing re-interns to the identical block *)
  let r4 = Route.update ~med:(Some 40) r1 in
  check_bool "no-op update keeps the block" true (Route.attrs r1 == Route.attrs r4);
  (* update that changes an attribute yields a distinct block... *)
  let r5 = Route.update ~med:(Some 41) r1 in
  check_bool "real update reinterns" true (Route.attrs r1 != Route.attrs r5);
  (* ...and reverting reconverges on the original physical block *)
  let r6 = Route.update ~med:(Some 40) r5 in
  check_bool "revert reconverges" true (Route.attrs r1 == Route.attrs r6)

let test_of_attrs_zero_copy () =
  let a = Route.make_attrs ~local_pref:250 ~next_hop:nh () in
  let r = Route.of_attrs ~path_id:3 ~prefix a in
  check_bool "same block" true (Route.attrs r == a);
  check_int "path id" 3 r.Route.path_id;
  check_int "local pref" 250 (Route.local_pref r);
  check_bool "attrs_equal is physical here" true (Route.attrs_equal a (Route.attrs r))

let test_wire_decode_interns () =
  (* one UPDATE carrying several NLRI with a shared attribute set must
     decode into heads over ONE interned block — and that block must be
     the same record a direct construction interns *)
  let mk p = Route.make ~med:(Some 9) ~prefix:(Prefix.of_string p) ~next_hop:nh () in
  let announced = [ mk "20.0.0.0/16"; mk "20.1.0.0/16"; mk "20.2.0.0/16" ] in
  let wire =
    Wire.encode ~add_paths:true (Msg.Update { withdrawn = []; announced })
  in
  check_int "one attribute grouping" 1 (List.length wire);
  match Wire.decode_all ~add_paths:true (List.hd wire) with
  | Ok [ Msg.Update { announced = decoded; _ } ] ->
    check_int "three routes" 3 (List.length decoded);
    let blocks = List.map Route.attrs decoded in
    List.iter
      (fun b -> check_bool "decoded NLRI share one block" true (b == List.hd blocks))
      blocks;
    check_bool "decode converges with construction" true
      (List.hd blocks == Route.attrs (mk "20.0.0.0/16"))
  | Ok _ -> Alcotest.fail "expected a single UPDATE"
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let prop_interning_respects_equality =
  (* random attribute pairs: physical block identity <=> same_path *)
  let attr_gen =
    QCheck.Gen.(
      map3
        (fun lp med asns -> (100 + lp, (if med > 2 then None else Some med),
                             List.map Asn.of_int asns))
        (int_bound 2) (int_bound 4)
        (list_size (int_bound 3) (int_range 1 4)))
  in
  QCheck.Test.make ~name:"interned identity = structural equality" ~count:200
    (QCheck.pair (QCheck.make attr_gen) (QCheck.make attr_gen))
    (fun ((lp1, med1, p1), (lp2, med2, p2)) ->
      let mk lp med p =
        Route.make ~local_pref:lp ~med ~as_path:(As_path.of_asns p) ~prefix
          ~next_hop:nh ()
      in
      let r1 = mk lp1 med1 p1 and r2 = mk lp2 med2 p2 in
      (Route.attrs r1 == Route.attrs r2) = Route.same_path r1 r2)

let suite =
  ( "route",
    [
      Alcotest.test_case "defaults" `Quick test_defaults;
      Alcotest.test_case "reflected marker" `Quick test_reflected_marker;
      Alcotest.test_case "cluster list" `Quick test_cluster_list;
      Alcotest.test_case "neighbor AS" `Quick test_neighbor_as;
      Alcotest.test_case "same_path vs equal" `Quick test_same_path_ignores_path_id;
      Alcotest.test_case "with_prefix" `Quick test_with_prefix;
      Alcotest.test_case "compare" `Quick test_compare_total_order;
      Alcotest.test_case "interning shares blocks" `Quick
        test_interning_shares_blocks;
      Alcotest.test_case "of_attrs zero copy" `Quick test_of_attrs_zero_copy;
      Alcotest.test_case "wire decode interns" `Quick test_wire_decode_interns;
      QCheck_alcotest.to_alcotest prop_interning_respects_equality;
    ] )
