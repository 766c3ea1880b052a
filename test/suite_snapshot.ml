(* lib/snapshot: checkpoint/restore roundtrips, resume-equals-uninterrupted
   (the subsystem's proof obligation, here as a property over random
   pause points), malformed-input rejection, and divergence bisection. *)

module C = Abrr_core.Config
module N = Abrr_core.Network
module Sim = Eventsim.Sim
module Time = Eventsim.Time
module S = Snapshot
module R = Abrr_core.Router

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok_digest net =
  match S.digest net with
  | Ok d -> d
  | Error e -> Alcotest.failf "digest failed: %s" e

(* ------------------------------------------------------------------ *)
(* Deterministic workloads: a seed-derived schedule of reified ops
   (injections, withdrawals, a failure/recovery pair) over the small
   helper networks. Everything goes through [N.at_op] so any event
   boundary is checkpointable. *)

let prefixes = Array.init 8 (fun i -> Helpers.pfx (Printf.sprintf "20.%d.0.0/16" i))

let mk_ops ~n ~seed ~count =
  let state = ref ((seed * 2) + 1) in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let ops =
    List.init count (fun k ->
        let t = Time.ms (40 * (k + 1)) in
        let router = rand n in
        let prefix = prefixes.(rand (Array.length prefixes)) in
        let op =
          if rand 4 = 0 then
            N.Withdraw
              { router; neighbor = Helpers.neighbor router; prefix; path_id = 0 }
          else
            N.Inject
              {
                router;
                neighbor = Helpers.neighbor router;
                route = Helpers.route ~asn:(7000 + rand 4) ~prefix router;
              }
        in
        (t, op))
  in
  (* One mid-trace crash + cold restart: checkpoints taken while Purge /
     Establish events are pending must restore too. *)
  let victim = rand (n - 1) + 1 in
  ops
  @ [
      (Time.ms (40 * (count / 2)), N.Fail victim);
      (Time.ms (40 * count), N.Recover victim);
    ]

let schemes =
  [
    ("full-mesh", fun () -> Helpers.full_mesh_config 6);
    (* MRAI on: pause points land while flush timers and per-session
       pending sets are live. *)
    ("full-mesh+mrai", fun () -> Helpers.full_mesh_config ~mrai:(Time.ms 500) 6);
    ("abrr", fun () -> Helpers.single_ap_abrr ~n:6 ());
    ( "tbrr",
      fun () ->
        C.make ~n_routers:6 ~igp:(Helpers.flat_igp 6)
          ~scheme:(C.tbrr [ { C.trrs = [ 0; 1 ]; clients = [ 2; 3; 4; 5 ] } ])
          () );
  ]

let scheme_cfg i = (snd (List.nth schemes (i mod List.length schemes))) ()

let prepare cfg ops =
  let net = N.create cfg in
  List.iter (fun (t, op) -> N.at_op net t op) ops;
  net

let run_to_quiescence net =
  match N.run ~max_events:500_000 net with
  | Sim.Quiescent -> ()
  | o -> Alcotest.failf "did not converge: %a" Sim.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Roundtrips *)

let test_roundtrip_quiescent () =
  let cfg = Helpers.full_mesh_config 5 in
  let ops = mk_ops ~n:5 ~seed:11 ~count:20 in
  let net = prepare cfg ops in
  run_to_quiescence net;
  let bytes = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  let net2 = N.create cfg in
  (match S.decode net2 bytes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode failed: %s" e);
  check_string "digest equal" (ok_digest net) (ok_digest net2);
  check_int "events_processed restored"
    (Sim.events_processed (N.sim net))
    (Sim.events_processed (N.sim net2));
  Array.iter
    (fun p -> check_bool "same Loc-RIB choices" true (Helpers.same_choices net net2 p))
    prefixes

let test_roundtrip_midrun () =
  let cfg = Helpers.full_mesh_config 5 in
  let ops = mk_ops ~n:5 ~seed:3 ~count:24 in
  let net = prepare cfg ops in
  ignore (N.run ~max_events:37 net);
  (* a pause point with deliveries, timers and ops still queued *)
  let bytes = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  let net2 = N.create cfg in
  (match S.decode net2 bytes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode failed: %s" e);
  check_string "paused digest equal" (ok_digest net) (ok_digest net2);
  run_to_quiescence net;
  run_to_quiescence net2;
  check_string "finished digest equal" (ok_digest net) (ok_digest net2)

let test_canonical_encoding () =
  (* Two networks driven into the same logical state encode to the same
     bytes — the property [digest] comparisons lean on. *)
  let cfg = Helpers.full_mesh_config 4 in
  let ops = mk_ops ~n:4 ~seed:8 ~count:12 in
  let a = prepare cfg ops and b = prepare cfg ops in
  run_to_quiescence a;
  run_to_quiescence b;
  check_bool "identical bytes" true (S.encode a = S.encode b)

(* A source whose last route is withdrawn leaves no entry behind: two
   routers in the same logical state must dump equal per-source tables,
   so no table lists a source with an empty dump. *)
let withdrawn_net () =
  let net = N.create (Helpers.single_ap_abrr ()) in
  let prefix = prefixes.(0) in
  Helpers.inject net ~router:2 (Helpers.route ~prefix 2);
  run_to_quiescence net;
  N.withdraw net ~router:2 ~neighbor:(Helpers.neighbor 2) prefix ~path_id:0;
  run_to_quiescence net;
  net

let test_no_empty_sources () =
  let net = withdrawn_net () in
  for i = 0 to N.router_count net - 1 do
    let empty = ref 0 in
    Array.iter
      (fun plane ->
        Abrr_core.Adj_in.iter_by_source plane ~sources:ignore
          ~source:(fun _ k -> if k = 0 then incr empty)
          ~entry:(fun _ _ -> ()))
      (R.planes (N.router net i));
    check_int (Printf.sprintf "router %d empty entries" i) 0 !empty
  done

(* ------------------------------------------------------------------ *)
(* Property: for any (seed, scheme, pause point), checkpoint + restore
   + continue ends in exactly the state of an uninterrupted run. *)

let resume_equals_uninterrupted (seed, scheme_i, k) =
  let cfg () = scheme_cfg scheme_i in
  let ops = mk_ops ~n:6 ~seed ~count:24 in
  let plain = prepare (cfg ()) ops in
  run_to_quiescence plain;
  let paused = prepare (cfg ()) ops in
  ignore (N.run ~max_events:(k + 1) paused);
  let bytes =
    match S.encode paused with Ok b -> b | Error e -> Alcotest.fail e
  in
  let resumed = N.create (cfg ()) in
  (match S.decode resumed bytes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode failed: %s" e);
  run_to_quiescence resumed;
  ok_digest resumed = ok_digest plain
  && Sim.events_processed (N.sim resumed) = Sim.events_processed (N.sim plain)
  && Abrr_core.Counters.to_fields (N.total_counters resumed)
     = Abrr_core.Counters.to_fields (N.total_counters plain)

let prop_resume =
  QCheck.Test.make ~name:"resume = uninterrupted (any seed/scheme/pause)"
    ~count:12
    QCheck.(
      triple (int_bound 999) (int_bound (List.length schemes - 1))
        (int_bound 400))
    resume_equals_uninterrupted

(* The schedule explorer's backtracking: encode at event k, fire j
   more ready events in an arbitrary order (the trace holds a crash and
   a cold restart, and one scheme runs MRAI), then decode into the same
   network. It is back in the encoded state, and a run to quiescence
   from there ends where an uninterrupted run does. *)
let restore_in_place (seed, scheme_i, (k, j)) =
  let cfg () = scheme_cfg scheme_i in
  let ops = mk_ops ~n:6 ~seed ~count:24 in
  let plain = prepare (cfg ()) ops in
  run_to_quiescence plain;
  let net = prepare (cfg ()) ops in
  ignore (N.run ~max_events:(k + 1) net);
  let at_k = ok_digest net in
  let bytes = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  ignore (Explore.random_run ~max_steps:(j + 1) ~seed net);
  (match S.decode net bytes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode failed: %s" e);
  ok_digest net = at_k
  &&
  (run_to_quiescence net;
   ok_digest net = ok_digest plain
   && Sim.events_processed (N.sim net) = Sim.events_processed (N.sim plain)
   && Abrr_core.Counters.to_fields (N.total_counters net)
      = Abrr_core.Counters.to_fields (N.total_counters plain))

let prop_restore_in_place =
  QCheck.Test.make ~name:"decode into the same network = state at encode"
    ~count:20
    QCheck.(
      triple (int_bound 999) (int_bound (List.length schemes - 1))
        (pair (int_bound 400) (int_bound 400)))
    restore_in_place

(* An encode allocates little beyond its bytes: the first body chunk is
   reused, and the id tables start small. A fresh 64 KB chunk alone is
   8 192 words. Large blocks go straight to the major heap, so this
   counts every allocation, not only minor words. *)
let test_encode_fixed_cost () =
  let net = Abrr_core.Gadgets.(build (med_oscillation (G_abrr 1))) in
  run_to_quiescence net;
  ignore (S.encode net);
  let before = Gc.allocated_bytes () in
  let bytes = S.encode net in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_bool "encodes" true (Result.is_ok bytes);
  if words >= 8192. then Alcotest.failf "encode allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Thunk rejection *)

let test_thunk_rejected () =
  let cfg = Helpers.full_mesh_config 4 in
  let net = N.create cfg in
  N.at net (Time.ms 10) (fun () -> ());
  match S.encode net with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "encode accepted a pending Thunk closure"

(* ------------------------------------------------------------------ *)
(* Malformed input. The trailer CRC is checked first, so corruptions
   that must exercise the deeper parse paths (bad magic, bad version,
   lying length fields, garbage route bytes) are re-sealed with a valid
   CRC — same reflected CRC-32 as lib/snapshot/codec.ml. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s len =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let reseal s =
  (* recompute the trailer CRC after patching the body *)
  let n = String.length s in
  let c = crc32 s (n - 4) in
  let b = Bytes.of_string s in
  Bytes.set b (n - 4) (Char.chr ((c lsr 24) land 0xff));
  Bytes.set b (n - 3) (Char.chr ((c lsr 16) land 0xff));
  Bytes.set b (n - 2) (Char.chr ((c lsr 8) land 0xff));
  Bytes.set b (n - 1) (Char.chr (c land 0xff));
  Bytes.to_string b

let patch s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

(* Where router [router]'s plane [plane] starts in a snapshot of a
   quiesced network without damping: no event is pending, and every
   inbox and pending list is empty. Everything before it is skipped by
   its format-5 lengths. *)
let plane_offset s ~router ~plane =
  let p = ref (String.length "ABRRSNAP" + 2) in
  let skip n = p := !p + n in
  let count () =
    let n = Int32.to_int (String.get_int32_be s !p) land 0xFFFF_FFFF in
    skip 4;
    n
  in
  let empty what = if count () <> 0 then Alcotest.failf "%s not empty" what in
  let routes () = skip (4 * count ()) in
  let rib () =
    for _ = 1 to count () do
      skip 8;
      routes ()
    done
  in
  skip (count ());
  for _ = 1 to count () do
    skip (count ())
  done;
  skip (20 * count ());
  skip 32;
  empty "event queue";
  skip 8;
  ignore (count ());
  let found = ref None and r = ref 0 in
  while !found = None do
    for _ = 1 to count () do
      rib ()
    done;
    for i = 0 to count () - 1 do
      if !r = router && i = plane then found := Some !p;
      for _ = 1 to count () do
        skip 8;
        rib ()
      done
    done;
    for _ = 1 to count () do
      for _ = 1 to count () do
        skip 8;
        routes ();
        skip 8
      done
    done;
    skip (24 * count ());
    empty "inbox";
    skip 1;
    empty "outgoing queue";
    for _ = 1 to count () do
      skip 16;
      empty "pending list";
      skip 1
    done;
    empty "damping table";
    skip (20 * 8 + 8 + 1);
    incr r
  done;
  Option.get !found

(* A format-5 snapshot may still list a source without routes: it loads,
   and the restored network encodes without it. *)
let test_empty_source_loads () =
  let net = withdrawn_net () in
  Helpers.inject net ~router:3 (Helpers.route ~prefix:prefixes.(1) 3);
  run_to_quiescence net;
  let good = Result.get_ok (S.encode net) in
  let o = plane_offset good ~router:5 ~plane:8 in
  let sources = Int32.to_int (String.get_int32_be good o) in
  check_bool "plane has from_arr entries" true (sources > 0);
  (* Source 4 goes before the first higher source, as the encoder would
     order it. *)
  let at = ref (o + 4) in
  for _ = 1 to sources do
    if Int64.to_int (String.get_int64_be good !at) < 4 then begin
      let entries = Int32.to_int (String.get_int32_be good (!at + 8)) in
      at := !at + 12;
      for _ = 1 to entries do
        at := !at + 8 + 4 + (4 * Int32.to_int (String.get_int32_be good (!at + 8)))
      done
    end
  done;
  let b = Buffer.create (String.length good + 12) in
  Buffer.add_string b (String.sub good 0 o);
  Buffer.add_int32_be b (Int32.of_int (sources + 1));
  Buffer.add_string b (String.sub good (o + 4) (!at - o - 4));
  Buffer.add_int64_be b 4L;
  Buffer.add_int32_be b 0l;
  Buffer.add_string b (String.sub good !at (String.length good - !at));
  let padded = reseal (Buffer.contents b) in
  let fresh = N.create (Helpers.single_ap_abrr ()) in
  check_bool "padded snapshot loads" true (S.decode fresh padded = Ok ());
  check_bool "encodes without the empty entry" true (S.encode fresh = Ok good)

let test_corrupt_rejected () =
  let cfg = Helpers.full_mesh_config 4 in
  let ops = mk_ops ~n:4 ~seed:5 ~count:16 in
  let net = prepare cfg ops in
  ignore (N.run ~max_events:25 net);
  let good = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  let n = String.length good in
  let rejects name bytes =
    let fresh = N.create cfg in
    match S.decode fresh bytes with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: corrupt snapshot accepted" name
  in
  (* sanity: the pristine bytes do decode *)
  (match S.decode (N.create cfg) good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pristine decode failed: %s" e);
  rejects "empty" "";
  rejects "shorter than header" (String.sub good 0 3);
  rejects "truncated" (String.sub good 0 (n - 10));
  rejects "flipped body byte (CRC)" (patch good (n / 2) '\xEE');
  rejects "bad magic" (reseal (patch good 0 'X'));
  rejects "bad version" (reseal (patch good 9 '\xFF'));
  (* the fingerprint length field (u32 right after magic + version) *)
  rejects "lying fingerprint length" (reseal (patch good 10 '\xFF'));
  let fp = S.fingerprint cfg in
  let route_count_off = 10 + 4 + String.length fp in
  rejects "implausible route count" (reseal (patch good route_count_off '\xFF'));
  (* garbage inside the first interned route's UPDATE bytes *)
  rejects "garbage route bytes"
    (reseal (patch (patch good (route_count_off + 10) '\xC3')
               (route_count_off + 11) '\x99'));
  (* wrong-config restore: same bytes, different network shape *)
  let other = Helpers.full_mesh_config 5 in
  (match S.decode (N.create other) good with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "decoded under a mismatched config")

(* Format 5 keeps a per-router outgoing-queue slot that is always
   written empty; a snapshot claiming queued output is refused. On a
   fresh network every table is empty, so router 0's slot sits at a
   fixed offset: the header with empty attribute and route tables, the
   body's clock, sequence, processed count, random state, event count,
   best-change count and router count, then router 0's 11 RIBs, 9
   per-source tables, 5 path-id tables, eBGP neighbours, inbox and
   process flag. *)
let test_outgoing_slot_rejected () =
  let cfg = Helpers.full_mesh_config 4 in
  let good = match S.encode (N.create cfg) with Ok b -> b | Error e -> Alcotest.fail e in
  let header = 10 + 4 + String.length (S.fingerprint cfg) + 4 + 4 in
  let body = (4 * 8) + 4 + 8 + 4 in
  let router0 = (4 + (11 * 4)) + (4 + (9 * 4)) + (4 + (5 * 4)) + 4 + 4 + 1 in
  let off = header + body + router0 in
  check_string "slot written empty" "\000\000\000\000" (String.sub good off 4);
  (* the count is a big-endian u32: make it 1 *)
  match S.decode (N.create cfg) (reseal (patch good (off + 3) '\001')) with
  | Ok () -> Alcotest.fail "decoded a router with queued output"
  | Error msg ->
    let word = "outgoing" in
    let rec mentions i =
      i + String.length word <= String.length msg
      && (String.sub msg i (String.length word) = word || mentions (i + 1))
    in
    if not (mentions 0) then Alcotest.failf "rejected for another reason: %s" msg

let test_corrupt_never_raises () =
  (* every single-byte corruption must come back as a result, not an
     exception — sweep the whole file *)
  let cfg = Helpers.full_mesh_config 4 in
  let ops = mk_ops ~n:4 ~seed:6 ~count:8 in
  let net = prepare cfg ops in
  ignore (N.run ~max_events:15 net);
  let good = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  for i = 0 to String.length good - 1 do
    let bad = patch good i '\xFF' in
    if bad <> good then
      match S.decode (N.create cfg) bad with
      | Ok () -> Alcotest.failf "byte %d: CRC should have caught this" i
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "byte %d: decode raised %s" i (Printexc.to_string e)
  done


(* Byte offsets into a snapshot, from the layout in snapshot.mli. *)
let u32_at s off =
  (Char.code s.[off] lsl 24) lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8) lor Char.code s.[off + 3]

let attr_table_off cfg = 10 + 4 + String.length (S.fingerprint cfg)

(* The route table's count field: past the attribute table's entries,
   each a u32 length and its bytes. *)
let route_table_off cfg s =
  let off = attr_table_off cfg in
  let n = u32_at s off in
  let rec skip off k = if k = 0 then off else skip (off + 4 + u32_at s off) (k - 1) in
  skip (off + 4) n

let body_off cfg s = route_table_off cfg s + 4 + (20 * u32_at s (route_table_off cfg s))

let rejects_sealed ~what cfg s =
  match S.decode (N.create cfg) (reseal s) with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: accepted" what
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

(* Prefix keys and IPv4 words are checked, not masked: a key whose
   length is above 32, whose address has host bits or is 2^32 or more,
   and an address word of 2^32 or more are refused even under a valid
   CRC. *)
let test_invalid_keys_rejected () =
  let cfg = Helpers.full_mesh_config 4 in
  let ops = mk_ops ~n:4 ~seed:5 ~count:16 in
  let net = prepare cfg ops in
  ignore (N.run ~max_events:25 net);
  let good = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  (match S.decode (N.create cfg) (reseal good) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resealed pristine bytes: %s" e);
  let routes = route_table_off cfg good in
  check_bool "route table not empty" true (u32_at good routes > 0);
  (* first route: u32 block id, then the 8-byte prefix key *)
  let key = routes + 4 + 4 in
  rejects_sealed ~what:"prefix length 63" cfg (patch good (key + 7) '\x3F');
  rejects_sealed ~what:"prefix length 33" cfg (patch good (key + 7) '\x21');
  rejects_sealed ~what:"address of 2^32 or more" cfg (patch good (key + 2) '\x01');
  rejects_sealed ~what:"negative key" cfg (patch good key '\x80');
  (* a /8 key with a host bit: address 20.0.0.1 *)
  let host_bit =
    let k = (Netaddr.Ipv4.to_int (Netaddr.Ipv4.of_string "20.0.0.1") lsl 6) lor 8 in
    let b = Bytes.of_string good in
    Bytes.set_int64_be b key (Int64.of_int k);
    Bytes.to_string b
  in
  rejects_sealed ~what:"host bits" cfg host_bit;
  (* The body's first pending event is an op: injection or withdrawal,
     both [u8 tag; router; neighbor]. Its neighbor word gets bit 32. *)
  let fresh = prepare cfg ops in
  let s = match S.encode fresh with Ok b -> b | Error e -> Alcotest.fail e in
  let ev = body_off cfg s + (4 * 8) + 4 in
  let payload = ev + (5 * 8) in
  check_int "first event is an op" 5 (Char.code s.[payload]);
  check_bool "inject or withdraw" true (Char.code s.[payload + 1] <= 1);
  let neighbor = payload + 2 + 8 in
  rejects_sealed ~what:"IPv4 word of 2^32 or more" cfg (patch s (neighbor + 3) '\x01')

(* Every byte set to each of 00, 01, 80 and FF, the CRC recomputed so
   the parse goes past the trailer: each decode returns, accepting or
   rejecting, and none raises. An accepted state also runs: every
   router index it names is inside the network. *)
let test_resealed_sweep_never_raises () =
  let cfg = Helpers.full_mesh_config 4 in
  let ops = mk_ops ~n:4 ~seed:6 ~count:8 in
  let net = prepare cfg ops in
  ignore (N.run ~max_events:15 net);
  let good = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  let accepted = ref 0 and rejected = ref 0 in
  for i = 0 to String.length good - 5 do
    List.iter
      (fun c ->
        if good.[i] <> c then
          let fresh = N.create cfg in
          match S.decode fresh (reseal (patch good i c)) with
          | Ok () -> (
            incr accepted;
            match N.run ~max_events:10_000 fresh with
            | _ -> ()
            | exception e ->
              Alcotest.failf "byte %d := %02x: the restored run raised %s" i
                (Char.code c) (Printexc.to_string e))
          | Error _ -> incr rejected
          | exception e ->
            Alcotest.failf "byte %d := %02x: decode raised %s" i (Char.code c)
              (Printexc.to_string e))
      [ '\x00'; '\x01'; '\x80'; '\xFF' ]
  done;
  check_bool "some mutations rejected" true (!rejected > 0);
  check_bool "some mutations accepted" true (!accepted > 0)

(* §2.4 Dual, checkpointed mid-transition: AP 0 is flipped to ABRR and
   an update injected, the run paused with the re-decisions and updates
   in flight, and the snapshot restored into a network whose config
   still accepts TBRR everywhere. The acceptance values come from the
   snapshot, and the resumed run ends in the uninterrupted run's state. *)
let dual_config () =
  let tbrr =
    {
      C.clusters =
        [
          { C.trrs = [ 0; 1 ]; clients = [ 4; 5 ] };
          { C.trrs = [ 2; 3 ]; clients = [ 6; 7 ] };
        ];
      multipath = false;
      best_external = false;
    }
  in
  let abrr =
    {
      C.partition = Abrr_core.Partition.uniform 2;
      arrs = [| [ 1 ]; [ 3 ] |];
      loop_prevention = C.Reflected_bit;
    }
  in
  C.make ~n_routers:8 ~igp:(Helpers.flat_igp 8)
    ~scheme:(C.Dual { tbrr; abrr; accept = Array.make 2 C.Accept_tbrr })
    ()

let dual_transition () =
  let net = N.create (dual_config ()) in
  let low = Helpers.pfx "20.0.0.0/16" and high = Helpers.pfx "200.0.0.0/16" in
  Helpers.inject net ~router:4 (Helpers.route ~med:10 ~prefix:low 4);
  Helpers.inject net ~router:6 (Helpers.route ~prefix:high 6);
  run_to_quiescence net;
  N.set_acceptance net ~ap:0 C.Accept_abrr;
  Helpers.inject net ~router:5 (Helpers.route ~med:5 ~prefix:low 5);
  Helpers.inject net ~router:7 (Helpers.route ~asn:7001 ~prefix:high 7);
  net

let test_dual_midtransition_resume () =
  let plain = dual_transition () in
  run_to_quiescence plain;
  let final = ok_digest plain in
  List.iter
    (fun k ->
      let paused = dual_transition () in
      (match N.run ~max_events:k paused with
      | Sim.Event_limit -> ()
      | o -> Alcotest.failf "pause at %d: %a" k Sim.pp_outcome o);
      check_bool "updates in flight" true (Sim.pending (N.sim paused) > 0);
      let bytes = match S.encode paused with Ok b -> b | Error e -> Alcotest.fail e in
      let resumed = N.create (dual_config ()) in
      (match S.decode resumed bytes with
      | Ok () -> ()
      | Error e -> Alcotest.failf "decode at %d: %s" k e);
      check_bool "AP 0 accepts ABRR" true (N.acceptance resumed 0 = C.Accept_abrr);
      check_bool "AP 1 accepts TBRR" true (N.acceptance resumed 1 = C.Accept_tbrr);
      check_string (Printf.sprintf "paused digest equal at %d" k) (ok_digest paused)
        (ok_digest resumed);
      run_to_quiescence resumed;
      check_string (Printf.sprintf "resumed at %d = uninterrupted" k) final
        (ok_digest resumed))
    [ 1; 2; 5; 10; 20 ]

(* Encoding costs what it writes: on a 104-router network whose snapshot
   exceeds 1 MB, [encode] allocates at most one word per output byte.
   [save] streams the same bytes, and [digest] is their MD5. *)
let test_encode_alloc_bounded () =
  let module T = Topo.Isp_topo in
  let module RG = Topo.Route_gen in
  let topo =
    T.generate
      (T.spec ~pops:13 ~routers_per_pop:8 ~peer_ases:25 ~peering_points_per_as:8
         ~seed:8 ())
  in
  let table = RG.generate topo (RG.spec ~n_prefixes:60 ~seed:9 ()) in
  let net =
    N.create
      (T.config ~med_mode:Bgp.Decision.Always_compare
         ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo)
         topo)
  in
  RG.inject_all table net;
  run_to_quiescence net;
  let words () =
    Gc.minor ();
    let st = Gc.quick_stat () in
    st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words
  in
  ignore (S.encode net);
  let w0 = words () in
  let bytes = match S.encode net with Ok b -> b | Error e -> Alcotest.fail e in
  let allocated = words () -. w0 in
  let n = String.length bytes in
  check_bool (Printf.sprintf "snapshot of %d bytes is at least 1 MB" n) true
    (n >= 1 lsl 20);
  if allocated > float_of_int n then
    Alcotest.failf "encode allocated %.0f words for %d bytes (%.2f per byte)"
      allocated n (allocated /. float_of_int n);
  let path = Filename.temp_file "abrr_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match S.save net ~path with Ok () -> () | Error e -> Alcotest.fail e);
      let ic = open_in_bin path in
      let saved = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_bool "save = encode" true (saved = bytes);
      check_bool "no temporary left" false (Sys.file_exists (path ^ ".tmp")));
  check_string "digest = MD5 of encode" (Digest.to_hex (Digest.string bytes))
    (ok_digest net)

(* ------------------------------------------------------------------ *)
(* Save/load *)

let test_save_load () =
  let cfg = Helpers.full_mesh_config 4 in
  let ops = mk_ops ~n:4 ~seed:9 ~count:12 in
  let net = prepare cfg ops in
  ignore (N.run ~max_events:30 net);
  let path = Filename.temp_file "abrr_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match S.save net ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" e);
      let net2 = N.create cfg in
      (match S.load net2 ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "load failed: %s" e);
      check_string "digest equal after file roundtrip" (ok_digest net)
        (ok_digest net2));
  match S.load (N.create cfg) ~path:"/nonexistent/abrr.snap" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "load of a missing file succeeded"

let test_segments () =
  let dir = Filename.temp_file "abrr_segs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      check_bool "empty dir" true (S.latest_segment ~dir ~label:"run" = None);
      let touch k =
        let oc = open_out (S.segment_path ~dir ~label:"a/b" k) in
        close_out oc
      in
      touch 0;
      touch 2;
      touch 10;
      match S.latest_segment ~dir ~label:"a/b" with
      | Some (10, path) ->
        check_string "path" (S.segment_path ~dir ~label:"a/b" 10) path
      | other ->
        Alcotest.failf "latest = %s"
          (match other with
          | None -> "None"
          | Some (k, p) -> Printf.sprintf "Some (%d, %s)" k p))

(* ------------------------------------------------------------------ *)
(* Sharded execution x checkpointing *)

(* Pause a sharded run at a barrier, snapshot, restore into a fresh
   network, finish serially — and the mirror image: pause serially,
   restore, finish sharded. Both must land on the uninterrupted serial
   run's digest: snapshots and shard barriers agree on what "the state
   at event k" is. *)
let test_sharded_pause_resume () =
  let cfg () = scheme_cfg 0 in
  let ops = mk_ops ~n:6 ~seed:17 ~count:20 in
  let reference = prepare (cfg ()) ops in
  run_to_quiescence reference;
  let final = ok_digest reference in
  let total = Sim.events_processed (N.sim reference) in
  check_bool "enough events" true (total > 40);
  let budget = total / 2 in
  (* sharded pause -> serial resume *)
  let a = prepare (cfg ()) ops in
  (match N.Sharded.run ~max_events:budget a ~jobs:2 with
  | Sim.Event_limit, _ -> ()
  | o, _ -> Alcotest.failf "sharded pause: %a" Sim.pp_outcome o);
  let bytes =
    match S.encode a with
    | Ok b -> b
    | Error e -> Alcotest.failf "encode at sharded pause: %s" e
  in
  let a' = N.create (cfg ()) in
  (match S.decode a' bytes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode: %s" e);
  run_to_quiescence a';
  check_string "sharded pause, serial resume" final (ok_digest a');
  (* serial pause -> sharded resume *)
  let b = prepare (cfg ()) ops in
  (match N.run ~max_events:budget b with
  | Sim.Event_limit -> ()
  | o -> Alcotest.failf "serial pause: %a" Sim.pp_outcome o);
  let bytes =
    match S.encode b with
    | Ok b -> b
    | Error e -> Alcotest.failf "encode at serial pause: %s" e
  in
  let b' = N.create (cfg ()) in
  (match S.decode b' bytes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode: %s" e);
  (match N.Sharded.run ~max_events:500_000 b' ~jobs:2 with
  | Sim.Quiescent, _ -> ()
  | o, _ -> Alcotest.failf "sharded resume: %a" Sim.pp_outcome o);
  check_string "serial pause, sharded resume" final (ok_digest b')

(* ------------------------------------------------------------------ *)
(* Bisection *)

let test_bisect_pure () =
  let const _ = "A" in
  let step_at j k = if k >= j then "B" else "A" in
  let search = S.Bisect.search in
  check_bool "identical -> None" true
    (search ~lo:0 ~hi:100 ~digest_a:const ~digest_b:const = None);
  check_bool "diverge at lo" true
    (search ~lo:5 ~hi:100 ~digest_a:const ~digest_b:(step_at 3) = Some 5);
  for j = 1 to 20 do
    check_bool "first divergence found" true
      (search ~lo:0 ~hi:100 ~digest_a:const ~digest_b:(step_at j) = Some j)
  done

let test_bisect_simulation () =
  (* A seeded run and a copy with one extra injection spliced in after
     event [fault_at] must bisect to exactly [fault_at]. *)
  let cfg () = Helpers.full_mesh_config 5 in
  let ops = mk_ops ~n:5 ~seed:21 ~count:20 in
  let total =
    let net = prepare (cfg ()) ops in
    run_to_quiescence net;
    Sim.events_processed (N.sim net)
  in
  let digest_run ?(fault_at = -1) k =
    let net = prepare (cfg ()) ops in
    let run_to target =
      let d = target - Sim.events_processed (N.sim net) in
      if d > 0 then ignore (N.run ~max_events:d net)
    in
    if fault_at >= 0 && fault_at <= k then begin
      run_to fault_at;
      Helpers.inject net ~router:0
        (Helpers.route ~asn:7999 ~prefix:(Helpers.pfx "20.200.0.0/16") 0)
    end;
    run_to k;
    ok_digest net
  in
  check_bool "enough events" true (total > 20);
  let fault_at = total / 2 in
  check_bool "no fault -> identical runs" true
    (S.Bisect.search ~lo:0 ~hi:total ~digest_a:(fun k -> digest_run k)
       ~digest_b:(fun k -> digest_run k)
    = None);
  check_bool "fault localized" true
    (S.Bisect.search ~lo:0 ~hi:total ~digest_a:(fun k -> digest_run k)
       ~digest_b:(fun k -> digest_run ~fault_at k)
    = Some fault_at)

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "roundtrip at quiescence" `Quick test_roundtrip_quiescent;
      Alcotest.test_case "roundtrip mid-run" `Quick test_roundtrip_midrun;
      Alcotest.test_case "canonical encoding" `Quick test_canonical_encoding;
      Alcotest.test_case "no empty per-source entry" `Quick test_no_empty_sources;
      Alcotest.test_case "empty per-source entry loads" `Quick
        test_empty_source_loads;
      QCheck_alcotest.to_alcotest prop_resume;
      QCheck_alcotest.to_alcotest prop_restore_in_place;
      Alcotest.test_case "encode: small fixed cost" `Quick test_encode_fixed_cost;
      Alcotest.test_case "thunk rejected" `Quick test_thunk_rejected;
      Alcotest.test_case "corruption rejected" `Quick test_corrupt_rejected;
      Alcotest.test_case "corruption never raises" `Quick test_corrupt_never_raises;
      Alcotest.test_case "queued output rejected" `Quick test_outgoing_slot_rejected;
      Alcotest.test_case "invalid keys and addresses rejected" `Quick
        test_invalid_keys_rejected;
      Alcotest.test_case "resealed mutation sweep never raises" `Quick
        test_resealed_sweep_never_raises;
      Alcotest.test_case "dual mid-transition resume" `Quick
        test_dual_midtransition_resume;
      Alcotest.test_case "encode allocation bounded by output" `Quick
        test_encode_alloc_bounded;
      Alcotest.test_case "save/load" `Quick test_save_load;
      Alcotest.test_case "segment files" `Quick test_segments;
      Alcotest.test_case "sharded pause <-> serial resume" `Quick
        test_sharded_pause_resume;
      Alcotest.test_case "bisect (pure)" `Quick test_bisect_pure;
      Alcotest.test_case "bisect (simulation)" `Quick test_bisect_simulation;
    ] )
