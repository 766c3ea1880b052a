open Helpers
module C = Abrr_core.Config
module Part = Abrr_core.Partition

let check_bool = Alcotest.(check bool)

let expect_error cfg =
  match C.validate cfg with Ok () -> false | Error _ -> true

let base scheme = C.make ~n_routers:4 ~igp:(flat_igp 4) ~scheme ()

let test_full_mesh_valid () =
  check_bool "ok" true (C.validate (base C.Full_mesh) = Ok ())

let test_igp_size_mismatch () =
  let cfg = C.make ~n_routers:5 ~igp:(flat_igp 4) ~scheme:C.Full_mesh () in
  check_bool "size mismatch" true (expect_error cfg)

let test_tbrr_validation () =
  check_bool "empty clusters" true (expect_error (base (C.tbrr [])));
  check_bool "cluster without trr" true
    (expect_error (base (C.tbrr [ { C.trrs = []; clients = [ 1 ] } ])));
  check_bool "out of range" true
    (expect_error (base (C.tbrr [ { C.trrs = [ 9 ]; clients = [] } ])));
  check_bool "trr is own client" true
    (expect_error (base (C.tbrr [ { C.trrs = [ 0 ]; clients = [ 0 ] } ])));
  check_bool "valid" true
    (C.validate (base (C.tbrr [ { C.trrs = [ 0 ]; clients = [ 1; 2; 3 ] } ])) = Ok ())

let test_abrr_validation () =
  let part = Part.uniform 2 in
  check_bool "length mismatch" true
    (expect_error (base (C.abrr ~partition:part [| [ 0 ] |])));
  check_bool "empty arr set" true
    (expect_error (base (C.abrr ~partition:part [| [ 0 ]; [] |])));
  check_bool "out of range" true
    (expect_error (base (C.abrr ~partition:part [| [ 0 ]; [ 12 ] |])));
  check_bool "valid" true
    (C.validate (base (C.abrr ~partition:part [| [ 0 ]; [ 1 ] |])) = Ok ())

let test_dual_validation () =
  let tbrr = { C.clusters = [ { C.trrs = [ 0 ]; clients = [ 1; 2; 3 ] } ]; multipath = false; best_external = false } in
  let abrr =
    { C.partition = Part.uniform 2; arrs = [| [ 1 ]; [ 2 ] |];
      loop_prevention = C.Reflected_bit }
  in
  let good = C.Dual { tbrr; abrr; accept = Array.make 2 C.Accept_tbrr } in
  check_bool "valid" true (C.validate (base good) = Ok ());
  let bad = C.Dual { tbrr; abrr; accept = Array.make 3 C.Accept_tbrr } in
  check_bool "accept length" true (expect_error (base bad))

let test_add_paths () =
  check_bool "full mesh off" false (C.add_paths (base C.Full_mesh));
  check_bool "tbrr single off" false
    (C.add_paths (base (C.tbrr [ { C.trrs = [ 0 ]; clients = [ 1 ] } ])));
  check_bool "tbrr multi on" true
    (C.add_paths (base (C.tbrr ~multipath:true [ { C.trrs = [ 0 ]; clients = [ 1 ] } ])));
  check_bool "abrr on" true
    (C.add_paths (base (C.abrr ~partition:(Part.uniform 1) [| [ 0 ] |])))

let test_loopback () =
  let cfg = base C.Full_mesh in
  Alcotest.(check string) "loopback" "10.0.0.3"
    (Netaddr.Ipv4.to_string (C.loopback 3));
  check_bool "roundtrip" true (C.router_of_loopback cfg (C.loopback 2) = Some 2);
  check_bool "out of range" true
    (C.router_of_loopback cfg (C.loopback 200) = None);
  check_bool "non loopback" true
    (C.router_of_loopback cfg (Netaddr.Ipv4.of_string "172.16.0.1") = None);
  let check_int = Alcotest.(check int) in
  check_int "index roundtrip" 2 (C.loopback_index cfg (C.loopback 2));
  check_int "index out of range" (-1) (C.loopback_index cfg (C.loopback 200));
  check_int "index last router" 3 (C.loopback_index cfg (C.loopback 3));
  check_int "index one past the last" (-1) (C.loopback_index cfg (C.loopback 4));
  check_int "index non loopback" (-1)
    (C.loopback_index cfg (Netaddr.Ipv4.of_string "172.16.0.1"));
  check_int "index below the range" (-1)
    (C.loopback_index cfg (Netaddr.Ipv4.of_string "9.255.255.255"));
  List.iter
    (fun i ->
      let a = C.loopback i in
      let i' = C.loopback_index cfg a in
      check_bool "option view" true
        (C.router_of_loopback cfg a = if i' < 0 then None else Some i'))
    [ -1; 0; 1; 3; 4; 200 ]

let test_proc_delay_of () =
  let cfg =
    C.make ~proc_delay:(Eventsim.Time.ms 10) ~proc_jitter:(Eventsim.Time.ms 100)
      ~n_routers:4 ~igp:(flat_igp 4) ~scheme:C.Full_mesh ()
  in
  let base_delay = Eventsim.Time.ms 10 in
  for i = 0 to 3 do
    let d = C.proc_delay_of cfg i in
    check_bool "within window" true
      (d >= base_delay && d < base_delay + Eventsim.Time.ms 100)
  done;
  (* deterministic *)
  check_bool "stable" true (C.proc_delay_of cfg 1 = C.proc_delay_of cfg 1);
  let nojitter = C.make ~n_routers:4 ~igp:(flat_igp 4) ~scheme:C.Full_mesh () in
  check_bool "no jitter" true (C.proc_delay_of nojitter 2 = nojitter.C.proc_delay)

let test_default_link_delay () =
  let d = C.default_link_delay 3 7 in
  check_bool "at least 1ms" true (d >= Eventsim.Time.ms 1);
  check_bool "deterministic" true (d = C.default_link_delay 3 7)

let suite =
  ( "config",
    [
      Alcotest.test_case "full mesh valid" `Quick test_full_mesh_valid;
      Alcotest.test_case "igp size mismatch" `Quick test_igp_size_mismatch;
      Alcotest.test_case "tbrr validation" `Quick test_tbrr_validation;
      Alcotest.test_case "abrr validation" `Quick test_abrr_validation;
      Alcotest.test_case "dual validation" `Quick test_dual_validation;
      Alcotest.test_case "add-paths flag" `Quick test_add_paths;
      Alcotest.test_case "loopback mapping" `Quick test_loopback;
      Alcotest.test_case "processing delay jitter" `Quick test_proc_delay_of;
      Alcotest.test_case "link delay" `Quick test_default_link_delay;
    ] )
