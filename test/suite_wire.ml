open Netaddr
open Bgp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let route ?(path_id = 0) ?(med = None) ?(comms = []) ?(ecs = []) ?(orig = None)
    ?(clusters = []) prefix =
  Route.make ~path_id
    ~as_path:(As_path.of_asns [ Asn.of_int 3001; Asn.of_int 55_000 ])
    ~med ~originator_id:orig ~cluster_list:clusters ~communities:comms
    ~ext_communities:ecs ~prefix:(Prefix.of_string prefix)
    ~next_hop:(Ipv4.of_string "10.0.0.1") ()

let decode_one ~add_paths bs =
  match Wire.decode_all ~add_paths bs with
  | Ok msgs -> msgs
  | Error e -> Alcotest.failf "decode error: %a" Wire.pp_error e

let concat bss = Bytes.concat Bytes.empty bss

let roundtrip ~add_paths msg =
  decode_one ~add_paths (concat (Wire.encode ~add_paths msg))

let test_keepalive () =
  match roundtrip ~add_paths:false Msg.Keepalive with
  | [ Msg.Keepalive ] -> ()
  | _ -> Alcotest.fail "keepalive roundtrip"

let test_open () =
  let o =
    {
      Msg.asn = Asn.of_int 65_000;
      hold_time = 180;
      bgp_id = Ipv4.of_string "10.0.0.7";
      add_paths = true;
    }
  in
  match roundtrip ~add_paths:false (Msg.Open o) with
  | [ Msg.Open o' ] ->
    check_bool "asn" true (Asn.equal o'.Msg.asn o.Msg.asn);
    check_int "hold" 180 o'.Msg.hold_time;
    check_bool "id" true (Ipv4.equal o'.Msg.bgp_id o.Msg.bgp_id);
    check_bool "add-paths" true o'.Msg.add_paths
  | _ -> Alcotest.fail "open roundtrip"

let test_open_4byte_asn () =
  let o =
    {
      Msg.asn = Asn.of_int 4_200_000_000;
      hold_time = 90;
      bgp_id = Ipv4.of_string "10.0.0.1";
      add_paths = false;
    }
  in
  match roundtrip ~add_paths:false (Msg.Open o) with
  | [ Msg.Open o' ] ->
    check_bool "as4 via capability" true (Asn.to_int o'.Msg.asn = 4_200_000_000)
  | _ -> Alcotest.fail "open as4 roundtrip"

let test_notification () =
  let n = { Msg.code = 6; subcode = 2; data = "bye" } in
  match roundtrip ~add_paths:false (Msg.Notification n) with
  | [ Msg.Notification n' ] ->
    check_int "code" 6 n'.Msg.code;
    check_int "subcode" 2 n'.Msg.subcode;
    check_bool "data" true (n'.Msg.data = "bye")
  | _ -> Alcotest.fail "notification roundtrip"

let test_update_roundtrip () =
  let r1 =
    route ~path_id:3 ~med:(Some 42)
      ~comms:[ Community.make 65000 100; Community.no_export ]
      ~ecs:[ Ext_community.reflected ]
      ~orig:(Some (Ipv4.of_string "10.0.0.9"))
      ~clusters:[ Ipv4.of_string "192.168.0.1"; Ipv4.of_string "192.168.0.2" ]
      "20.1.0.0/16"
  in
  let r2 = route ~path_id:4 "21.0.0.0/8" in
  let u =
    {
      Msg.withdrawn = [ { Msg.prefix = Prefix.of_string "22.0.0.0/24"; path_id = 7 } ];
      announced = [ r1; r2 ];
    }
  in
  let msgs = roundtrip ~add_paths:true (Msg.Update u) in
  let withdrawn = List.concat_map (function Msg.Update u -> u.Msg.withdrawn | _ -> []) msgs in
  let announced = List.concat_map (function Msg.Update u -> u.Msg.announced | _ -> []) msgs in
  check_int "withdrawn" 1 (List.length withdrawn);
  check_int "announced" 2 (List.length announced);
  let r1' = List.find (fun (r : Route.t) -> r.Route.path_id = 3) announced in
  check_bool "full attrs survive" true (Route.equal r1 r1');
  let r2' = List.find (fun (r : Route.t) -> r.Route.path_id = 4) announced in
  check_bool "r2 survives" true (Route.equal r2 r2')

let test_update_groups_by_attrs () =
  (* routes with identical attributes share one UPDATE message *)
  let mk p = route p in
  let u = { Msg.withdrawn = []; announced = [ mk "20.0.0.0/16"; mk "21.0.0.0/16" ] } in
  check_int "one message" 1 (List.length (Wire.encode ~add_paths:false (Msg.Update u)));
  let u2 =
    {
      Msg.withdrawn = [];
      announced = [ mk "20.0.0.0/16"; route ~med:(Some 9) "21.0.0.0/16" ];
    }
  in
  check_int "two messages" 2 (List.length (Wire.encode ~add_paths:false (Msg.Update u2)))

let test_update_size_split () =
  (* enough NLRI to exceed 4096 bytes must split into several messages *)
  let routes =
    List.init 1500 (fun i ->
        route ~path_id:(i + 1)
          (Printf.sprintf "20.%d.%d.0/24" (i / 250) (i mod 250)))
  in
  let msgs = Wire.encode ~add_paths:true (Msg.Update { Msg.withdrawn = []; announced = routes }) in
  check_bool "split" true (List.length msgs > 1);
  List.iter
    (fun m -> check_bool "size cap" true (Bytes.length m <= Wire.max_message_size))
    msgs;
  let decoded = decode_one ~add_paths:true (concat msgs) in
  let announced = List.concat_map (function Msg.Update u -> u.Msg.announced | _ -> []) decoded in
  check_int "all survive" 1500 (List.length announced)

let test_confed_segments_roundtrip () =
  let r =
    Route.make
      ~as_path:
        (As_path.of_segments
           [ As_path.Confed_seq [ Asn.of_int 64513; Asn.of_int 64512 ];
             As_path.Seq [ Asn.of_int 3001 ];
             As_path.Confed_set [ Asn.of_int 64514 ];
             As_path.Set [ Asn.of_int 9 ] ])
      ~prefix:(Prefix.of_string "20.0.0.0/16")
      ~next_hop:(Ipv4.of_string "10.0.0.1") ()
  in
  let u = { Msg.withdrawn = []; announced = [ r ] } in
  match roundtrip ~add_paths:false (Msg.Update u) with
  | [ Msg.Update u' ] ->
    check_bool "segments preserved" true
      (Route.equal r (List.hd u'.Msg.announced))
  | _ -> Alcotest.fail "confed roundtrip"

let test_decode_errors () =
  let good = concat (Wire.encode ~add_paths:false Msg.Keepalive) in
  (* corrupt the marker *)
  let bad = Bytes.copy good in
  Bytes.set bad 0 '\x00';
  check_bool "bad marker" true (Result.is_error (Wire.decode_all ~add_paths:false bad));
  (* truncate *)
  let short = Bytes.sub good 0 (Bytes.length good - 1) in
  check_bool "truncated" true (Result.is_error (Wire.decode_all ~add_paths:false short));
  (* bad type *)
  let badt = Bytes.copy good in
  Bytes.set badt 18 '\x09';
  check_bool "bad type" true (Result.is_error (Wire.decode_all ~add_paths:false badt))

let test_add_paths_flag_matters () =
  (* a message encoded with add-paths decodes differently without it *)
  let u = { Msg.withdrawn = []; announced = [ route ~path_id:5 "20.0.0.0/16" ] } in
  let bs = concat (Wire.encode ~add_paths:true (Msg.Update u)) in
  match Wire.decode_all ~add_paths:true bs with
  | Ok [ Msg.Update u' ] ->
    check_int "path id preserved" 5 (List.hd u'.Msg.announced).Route.path_id
  | _ -> Alcotest.fail "add-paths decode"

(* --- property: random updates roundtrip ----------------------------- *)

let gen_route =
  let open QCheck.Gen in
  let* a = int_range 1 223 in
  let* b = int_range 0 255 in
  let* len = int_range 8 32 in
  let* path_id = int_range 0 1000 in
  let* n_as = int_range 0 4 in
  let* asns = list_size (return n_as) (int_range 1 400_000) in
  let* med = opt (int_range 0 10_000) in
  let* lp = int_range 0 1000 in
  let* orig = opt (int_range 0 0xFFFF) in
  let* n_cl = int_range 0 3 in
  let* cls = list_size (return n_cl) (int_range 0 0xFFFF) in
  let* n_com = int_range 0 3 in
  let* comms = list_size (return n_com) (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)) in
  let* reflected = bool in
  return
    (Route.make ~path_id
       ~as_path:(As_path.of_asns (List.map Asn.of_int asns))
       ~med ~local_pref:lp
       ~originator_id:(Option.map (fun x -> Ipv4.of_int (0x0A00_0000 + x)) orig)
       ~cluster_list:(List.map (fun x -> Ipv4.of_int (0xC0A8_0000 + x)) cls)
       ~communities:(List.map (fun (a, t) -> Community.make a t) comms)
       ~ext_communities:(if reflected then [ Ext_community.reflected ] else [])
       ~prefix:(Prefix.make (Ipv4.of_octets a b 0 0) len)
       ~next_hop:(Ipv4.of_int (0x0A00_0000 + path_id))
       ())

let arb_route = QCheck.make gen_route

let prop_roundtrip =
  QCheck.Test.make ~name:"random update wire roundtrip" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 10) arb_route)
    (fun routes ->
      (* distinct (prefix, path_id) per update; dedupe *)
      let seen = Hashtbl.create 16 in
      let routes =
        List.filter
          (fun (r : Route.t) ->
            let k = (Prefix.to_key r.Route.prefix, r.Route.path_id) in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          routes
      in
      let u = { Msg.withdrawn = []; announced = routes } in
      let bs = concat (Wire.encode ~add_paths:true (Msg.Update u)) in
      match Wire.decode_all ~add_paths:true bs with
      | Error _ -> false
      | Ok msgs ->
        let announced =
          List.concat_map (function Msg.Update u -> u.Msg.announced | _ -> []) msgs
        in
        let sort rs = List.sort Route.compare rs in
        List.equal Route.equal (sort routes) (sort announced))

(* The analytical sizer must agree with the real encoder on every
   update: bytes and message count, across attribute grouping,
   withdrawal batching, 4096-byte fragmentation and both add-paths
   settings. The generator's long AS paths also cross the 255-byte
   extended-length attribute threshold. *)
let prop_measure_matches_encode =
  QCheck.Test.make ~name:"measure_update = encode (bytes and messages)"
    ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 40) arb_route)
        (list_of_size (Gen.int_range 0 30)
           (pair (int_bound 255) (int_bound 1000)))
        bool)
    (fun (routes, wds, add_paths) ->
      let long_tail =
        (* a >63-ASN path forces the extended-length attribute header *)
        match routes with
        | r :: _ ->
          [
            Route.update
              ~as_path:
                (As_path.of_asns (List.init 70 (fun i -> Asn.of_int (i + 1))))
              r;
          ]
        | [] -> []
      in
      let u =
        {
          Msg.withdrawn =
            List.map
              (fun (b, pid) ->
                {
                  Msg.prefix = Prefix.make (Ipv4.of_octets 30 b 0 0) 16;
                  path_id = pid;
                })
              wds;
          announced = routes @ long_tail;
        }
      in
      let encoded = Wire.encode ~add_paths (Msg.Update u) in
      let bytes = List.fold_left (fun n b -> n + Bytes.length b) 0 encoded in
      Wire.measure_update ~add_paths u = (bytes, List.length encoded))

let prop_fuzz_no_crash =
  QCheck.Test.make ~name:"random bytes never crash the decoder" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      match Wire.decode_all ~add_paths:true (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

let prop_bitflip_no_crash =
  QCheck.Test.make ~name:"bit-flipped valid messages never crash" ~count:300
    QCheck.(pair (int_bound 1000) (int_bound 255))
    (fun (pos, v) ->
      let u =
        { Msg.withdrawn = [];
          announced = [ route ~path_id:1 ~med:(Some 9) "20.0.0.0/16" ] }
      in
      let bs = concat (Wire.encode ~add_paths:true (Msg.Update u)) in
      if Bytes.length bs = 0 then true
      else begin
        let bs = Bytes.copy bs in
        Bytes.set bs (pos mod Bytes.length bs) (Char.chr v);
        match Wire.decode_all ~add_paths:true bs with Ok _ | Error _ -> true
      end)


(* [Route.wire_len], cached when a block is interned, is exactly what
   the encoder spends on the block: a one-route UPDATE is the header,
   the two length fields, the attributes and the NLRI. Blocks re-interned
   by [update] carry their own length, and a >63-ASN path crosses to the extended-length header. *)
let test_wire_len_matches_encode () =
  let base = route ~med:(Some 5) ~comms:[ Community.make 65_000 1 ] "20.0.0.0/16" in
  let long_path = As_path.of_asns (List.init 70 (fun i -> Asn.of_int (i + 1))) in
  let cases =
    [
      ("base", base);
      ("update", Route.update ~med:None ~local_pref:200 base);
      ("reflected", Route.update ~ext_communities:[ Ext_community.reflected ] base);
      ("one cluster", Route.update ~cluster_list:[ Ipv4.of_string "10.9.9.9" ] base);
      ( "reflected, two clusters",
        Route.update
          ~originator_id:(Some (Ipv4.of_string "10.0.0.3"))
          ~ext_communities:[ Ext_community.reflected ]
          ~cluster_list:[ Ipv4.of_string "10.9.9.8"; Ipv4.of_string "10.9.9.9" ]
          base );
      ("70-ASN path", Route.update ~as_path:long_path base);
    ]
  in
  List.iter
    (fun (name, r) ->
      List.iter
        (fun add_paths ->
          let u = { Msg.withdrawn = []; announced = [ r ] } in
          let bytes = Bytes.length (concat (Wire.encode ~add_paths (Msg.Update u))) in
          let nlri = (if add_paths then 4 else 0) + 1 + 2 (* a /16 *) in
          check_int name bytes
            (Wire.header_size + 4 + Route.wire_len (Route.attrs r) + nlri))
        [ false; true ])
    cases;
  (* 70 ASNs instead of 2: a 282-byte AS_PATH payload, whose header
     grows by one byte for the 2-byte length *)
  check_int "extended length header" 1
    (Route.wire_len (Route.attrs (Route.update ~as_path:long_path base))
    - Route.wire_len (Route.attrs base)
    - (4 * 68))

(* --- single-route entries ------------------------------------------- *)

(* The attribute encoder as it was written before the in-place writer:
   one [Buffer] per attribute payload. The reference the writer must
   reproduce byte for byte. *)
let reference_attrs (a : Route.attrs) =
  let buf = Buffer.create 64 in
  let w8 b v = Buffer.add_char b (Char.chr (v land 0xFF)) in
  let w16 b v = w8 b (v lsr 8); w8 b v in
  let w32 b v = w16 b (v lsr 16); w16 b (v land 0xFFFF) in
  let attr ~flags ~typ fill =
    let payload = Buffer.create 16 in
    fill payload;
    let n = Buffer.length payload in
    if n > 0xFF then (w8 buf (flags lor 0x10); w8 buf typ; w16 buf n)
    else (w8 buf flags; w8 buf typ; w8 buf n);
    Buffer.add_buffer buf payload
  in
  attr ~flags:0x40 ~typ:1 (fun b -> w8 b (Origin.to_code a.Route.origin));
  attr ~flags:0x40 ~typ:2 (fun b ->
      List.iter
        (fun (s : As_path.segment) ->
          let code, asns =
            match s with
            | As_path.Set l -> (1, l)
            | As_path.Seq l -> (2, l)
            | As_path.Confed_seq l -> (3, l)
            | As_path.Confed_set l -> (4, l)
          in
          w8 b code;
          w8 b (List.length asns);
          List.iter (fun x -> w32 b (Asn.to_int x)) asns)
        (As_path.segments a.Route.as_path));
  attr ~flags:0x40 ~typ:3 (fun b -> w32 b (Ipv4.to_int a.Route.next_hop));
  Option.iter (fun m -> attr ~flags:0x80 ~typ:4 (fun b -> w32 b m)) a.Route.med;
  attr ~flags:0x40 ~typ:5 (fun b -> w32 b a.Route.local_pref);
  if a.Route.communities <> [] then
    attr ~flags:0xC0 ~typ:8 (fun b ->
        List.iter (fun c -> w32 b (Community.to_int c)) a.Route.communities);
  Option.iter
    (fun id -> attr ~flags:0x80 ~typ:9 (fun b -> w32 b (Ipv4.to_int id)))
    a.Route.originator_id;
  if a.Route.cluster_list <> [] then
    attr ~flags:0x80 ~typ:10 (fun b ->
        List.iter (fun id -> w32 b (Ipv4.to_int id)) a.Route.cluster_list);
  if a.Route.ext_communities <> [] then
    attr ~flags:0xC0 ~typ:16 (fun b ->
        List.iter
          (fun e ->
            w8 b (Ext_community.typ e);
            w8 b (Ext_community.subtyp e);
            let v = Ext_community.value e in
            w16 b (v lsr 32);
            w32 b (v land 0xFFFF_FFFF))
          a.Route.ext_communities);
  Buffer.contents buf

(* Blocks over every attribute: empty and multi-segment AS paths of all
   four segment types, every optional attribute present or absent, and
   long lists that cross the 255-byte extended-length threshold. *)
let gen_block =
  let open QCheck.Gen in
  let* origin = oneofl [ Origin.Igp; Origin.Egp; Origin.Incomplete ] in
  let* long = int_range 0 5 in
  let* segs =
    list_size (int_range 0 3)
      (let* kind = int_range 0 3 in
       let* n = if long = 0 then int_range 60 80 else int_range 0 5 in
       let* asns = list_size (return n) (int_range 1 400_000) in
       let asns = List.map Asn.of_int asns in
       return
         (match kind with
         | 0 -> As_path.Seq asns
         | 1 -> As_path.Set asns
         | 2 -> As_path.Confed_seq asns
         | _ -> As_path.Confed_set asns))
  in
  let* nh = int_range 0 0xFFFF_FFFF in
  let* med = opt (int_range 0 0xFFFF_FFFF) in
  let* lp = int_range 0 0xFFFF_FFFF in
  let* orig = opt (int_range 0 0xFFFF_FFFF) in
  let* cls = list_size (if long = 1 then int_range 64 90 else int_range 0 3) (int_range 0 0xFFFF_FFFF) in
  let* comms = list_size (if long = 2 then int_range 64 90 else int_range 0 3) (int_range 0 0xFFFF_FFFF) in
  let* ecs =
    list_size (if long = 3 then int_range 32 40 else int_range 0 2)
      (triple (int_range 0 255) (int_range 0 255) (int_range 0 0xFFFF_FFFF_FFFF))
  in
  return
    (Route.make_attrs ~origin ~as_path:(As_path.of_segments segs) ~med ~local_pref:lp
       ~originator_id:(Option.map Ipv4.of_int orig)
       ~cluster_list:(List.map Ipv4.of_int cls)
       ~communities:(List.map Community.of_int32_bits comms)
       ~ext_communities:
         (List.map (fun (typ, subtyp, value) -> Ext_community.make ~typ ~subtyp ~value) ecs)
       ~next_hop:(Ipv4.of_int nh) ())

let print_block a = Format.asprintf "%a" Route.pp (Route.of_attrs ~prefix:Prefix.default a)
let arb_block = QCheck.make ~print:print_block gen_block

let entry_bytes a =
  let b = Bytes.create (Wire.attrs_entry_size a) in
  Wire.write_attrs_entry a b 0;
  Bytes.to_string b

let prop_entry_writer =
  QCheck.Test.make ~name:"entry writer = encode of the one-route UPDATE" ~count:300
    arb_block (fun a ->
      let w = Bytes.create (Route.wire_len a + 3) in
      let stop = Wire.write_attrs a w 3 in
      stop = 3 + Route.wire_len a
      && Bytes.sub_string w 3 (Route.wire_len a) = reference_attrs a
      && entry_bytes a
         = Bytes.to_string
             (concat
                (Wire.encode ~add_paths:true
                   (Msg.Update
                      { withdrawn = []; announced = [ Route.of_attrs ~prefix:Prefix.default a ] }))))

(* [Grow] appends bytes and adds their count to the header's length
   field: with an add-paths NLRI, a second route in the same message. *)
type mutation = Set of int * int | Truncate of int | Extend of string | Grow of string

let gen_nlri =
  let open QCheck.Gen in
  let* path_id = string_size (return 4) in
  let* len = int_range 0 32 in
  let* addr = string_size (return ((len + 7) / 8)) in
  return (path_id ^ String.make 1 (Char.chr len) ^ addr)

let gen_mutation =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun i v -> Set (i, v)) nat (int_range 0 255));
      (1, map (fun k -> Truncate k) (int_range 1 12));
      (1, map (fun s -> Extend s) (string_size (int_range 1 12)));
      (1, map (fun s -> Grow s) gen_nlri);
    ]

let mutate s = function
  | Set (i, v) ->
    let b = Bytes.of_string s in
    Bytes.set b (i mod String.length s) (Char.chr v);
    Bytes.to_string b
  | Truncate k -> String.sub s 0 (max 0 (String.length s - k))
  | Extend junk -> s ^ junk
  | Grow more when String.length s >= Wire.header_size ->
    let b = Bytes.of_string (s ^ more) in
    Bytes.set_uint16_be b 16 ((Bytes.get_uint16_be b 16 + String.length more) land 0xFFFF);
    Bytes.to_string b
  | Grow more -> s ^ more

(* What the snapshot decoder accepted before the in-place reader: the
   entry decodes as exactly one UPDATE announcing one route. *)
let old_path entry =
  match Wire.decode_all ~add_paths:true (Bytes.of_string entry) with
  | Ok [ Msg.Update { withdrawn = []; announced = [ r ] } ] -> Some (Route.attrs r)
  | Ok _ | Error _ -> None

let prop_entry_reader =
  QCheck.Test.make ~name:"entry reader = decode_all, also on mutated entries"
    ~count:600
    QCheck.(
      triple arb_block
        (make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) gen_mutation))
        (pair (string_of_size (Gen.int_range 0 5)) (string_of_size (Gen.int_range 0 5))))
    (fun (a, muts, (before, after)) ->
      let entry = List.fold_left mutate (entry_bytes a) muts in
      let s = before ^ entry ^ after in
      let got =
        match
          Wire.read_attrs_entry s ~pos:(String.length before) ~len:(String.length entry)
        with
        | Ok b -> Some b
        | Error _ -> None
      in
      match (old_path entry, got) with
      | None, None -> true
      | Some x, Some y -> x == y && (muts <> [] || x == a)
      | _ -> false)

(* [encode] of a fixed set of updates, pinned: the attribute writer,
   grouping and chunking produce exactly the bytes they did before the
   writer worked in place. *)
let test_encode_pinned () =
  let long_path = As_path.of_asns (List.init 70 (fun i -> Asn.of_int (i + 1))) in
  let base =
    route ~med:(Some 7) ~comms:[ Community.make 65_000 1 ] ~ecs:[ Ext_community.reflected ]
      ~orig:(Some (Ipv4.of_string "10.0.0.3"))
      ~clusters:[ Ipv4.of_string "10.9.9.9"; Ipv4.of_string "10.9.9.8" ]
      "20.0.0.0/16"
  in
  let announced =
    [
      base;
      route ~path_id:3 "20.1.0.0/16";
      Route.update ~as_path:long_path (route ~path_id:4 "20.2.0.0/24");
      Route.with_prefix (Prefix.of_string "20.3.0.0/17") base;
    ]
    @ List.init 600 (fun i ->
          route ~path_id:i (Printf.sprintf "30.%d.%d.0/24" (i / 256) (i mod 256)))
  in
  let withdrawn =
    List.init 500 (fun i ->
        { Msg.prefix = Prefix.make (Ipv4.of_octets 40 (i / 256) (i mod 256) 0) 24; path_id = i })
  in
  let digest add_paths =
    Digest.to_hex
      (Digest.bytes (concat (Wire.encode ~add_paths (Msg.Update { withdrawn; announced }))))
  in
  Alcotest.(check string) "add-paths" "ddf5177fc781ac79a4027068d1949512" (digest true);
  Alcotest.(check string) "plain" "49eb863c039f95a983550c49961cd9f1" (digest false)

let suite =
  ( "wire",
    [
      Alcotest.test_case "keepalive" `Quick test_keepalive;
      Alcotest.test_case "open" `Quick test_open;
      Alcotest.test_case "open 4-byte ASN" `Quick test_open_4byte_asn;
      Alcotest.test_case "notification" `Quick test_notification;
      Alcotest.test_case "update full attrs" `Quick test_update_roundtrip;
      Alcotest.test_case "attribute grouping" `Quick test_update_groups_by_attrs;
      Alcotest.test_case "4096-byte split" `Quick test_update_size_split;
      Alcotest.test_case "confed segments" `Quick test_confed_segments_roundtrip;
      Alcotest.test_case "decode errors" `Quick test_decode_errors;
      Alcotest.test_case "add-paths ids" `Quick test_add_paths_flag_matters;
      Alcotest.test_case "wire_len = encoded attribute length" `Quick
        test_wire_len_matches_encode;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_measure_matches_encode;
      QCheck_alcotest.to_alcotest prop_fuzz_no_crash;
      QCheck_alcotest.to_alcotest prop_bitflip_no_crash;
      Alcotest.test_case "encode output pinned" `Quick test_encode_pinned;
      QCheck_alcotest.to_alcotest prop_entry_writer;
      QCheck_alcotest.to_alcotest prop_entry_reader;
    ] )
