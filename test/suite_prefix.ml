open Netaddr

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let p = Prefix.of_string

let test_canonical () =
  (* host bits are zeroed *)
  let q = Prefix.make (Ipv4.of_string "10.1.2.3") 16 in
  check_str "canonical" "10.1.0.0/16" (Prefix.to_string q)

let test_parse () =
  check_str "roundtrip" "192.168.0.0/24" (Prefix.to_string (p "192.168.0.0/24"));
  check_bool "reject len" true (Prefix.of_string_opt "1.2.3.4/33" = None);
  check_bool "reject no slash" true (Prefix.of_string_opt "1.2.3.4" = None);
  check_bool "reject garbage" true (Prefix.of_string_opt "1.2.3.4/x" = None)

let test_mem () =
  let q = p "10.1.0.0/16" in
  check_bool "inside" true (Prefix.mem (Ipv4.of_string "10.1.200.7") q);
  check_bool "outside" false (Prefix.mem (Ipv4.of_string "10.2.0.0") q);
  check_bool "default matches all" true
    (Prefix.mem (Ipv4.of_string "250.1.2.3") Prefix.default)

let test_subsumes () =
  check_bool "parent" true (Prefix.subsumes (p "10.0.0.0/8") (p "10.1.0.0/16"));
  check_bool "self" true (Prefix.subsumes (p "10.0.0.0/8") (p "10.0.0.0/8"));
  check_bool "child not parent" false
    (Prefix.subsumes (p "10.1.0.0/16") (p "10.0.0.0/8"));
  check_bool "sibling" false (Prefix.subsumes (p "10.0.0.0/16") (p "10.1.0.0/16"))

let test_overlaps () =
  check_bool "nested" true (Prefix.overlaps (p "10.0.0.0/8") (p "10.5.0.0/16"));
  check_bool "disjoint" false (Prefix.overlaps (p "10.0.0.0/16") (p "10.1.0.0/16"))

let test_first_last_size () =
  let q = p "10.1.0.0/16" in
  check_str "first" "10.1.0.0" (Ipv4.to_string (Prefix.first q));
  check_str "last" "10.1.255.255" (Ipv4.to_string (Prefix.last q));
  check_int "size" 65536 (Prefix.size q);
  check_int "host size" 1 (Prefix.size (Prefix.host (Ipv4.of_string "1.2.3.4")))

let test_split () =
  let l, r = Prefix.split (p "10.0.0.0/8") in
  check_str "left" "10.0.0.0/9" (Prefix.to_string l);
  check_str "right" "10.128.0.0/9" (Prefix.to_string r);
  check_bool "cannot split host" true
    (try
       ignore (Prefix.split (Prefix.host Ipv4.zero));
       false
     with Invalid_argument _ -> true)

let test_key_roundtrip () =
  List.iter
    (fun s ->
      let q = p s in
      check_bool s true (Prefix.equal q (Prefix.of_key (Prefix.to_key q)));
      check_bool (s ^ " is a key") true (Prefix.is_key (Prefix.to_key q)))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "255.255.255.255/32"; "128.0.0.0/1" ];
  (* integers that are no prefix's key *)
  let host_bit = (Ipv4.to_int (Ipv4.of_string "10.0.0.1") lsl 6) lor 8 in
  List.iter
    (fun (name, k) -> check_bool name false (Prefix.is_key k))
    [
      ("length 33", 33); ("length 63", 63); ("negative", -1);
      ("address of 2^32", 1 lsl 38); ("host bits", host_bit);
      ("min_int", min_int); ("max_int", max_int);
    ]

let test_compare_order () =
  let sorted =
    List.sort Prefix.compare [ p "10.1.0.0/16"; p "10.0.0.0/8"; p "9.0.0.0/8" ]
  in
  check_str "order" "9.0.0.0/8 10.0.0.0/8 10.1.0.0/16"
    (String.concat " " (List.map Prefix.to_string sorted))

let prop_split_partitions =
  QCheck.Test.make ~name:"split partitions parent" ~count:200
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 30))
    (fun (a, len) ->
      let parent = Prefix.make (Ipv4.of_int (a * 131)) len in
      let l, r = Prefix.split parent in
      Prefix.size l + Prefix.size r = Prefix.size parent
      && Prefix.subsumes parent l && Prefix.subsumes parent r
      && not (Prefix.overlaps l r))

let suite =
  ( "prefix",
    [
      Alcotest.test_case "canonical form" `Quick test_canonical;
      Alcotest.test_case "parse" `Quick test_parse;
      Alcotest.test_case "mem" `Quick test_mem;
      Alcotest.test_case "subsumes" `Quick test_subsumes;
      Alcotest.test_case "overlaps" `Quick test_overlaps;
      Alcotest.test_case "first/last/size" `Quick test_first_last_size;
      Alcotest.test_case "split" `Quick test_split;
      Alcotest.test_case "key roundtrip" `Quick test_key_roundtrip;
      Alcotest.test_case "compare order" `Quick test_compare_order;
      QCheck_alcotest.to_alcotest prop_split_partitions;
    ] )
