(* lib/snapshot: checkpoint/restore roundtrips, resume-equals-uninterrupted
   (the subsystem's proof obligation, here as a property over random
   pause points), malformed-input rejection, and divergence bisection. *)

module C = Abrr_core.Config
module N = Abrr_core.Network
module Sim = Eventsim.Sim
module Time = Eventsim.Time
module S = Snapshot

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
      QCheck_alcotest.to_alcotest prop_resume;
      Alcotest.test_case "thunk rejected" `Quick test_thunk_rejected;
      Alcotest.test_case "corruption rejected" `Quick test_corrupt_rejected;
      Alcotest.test_case "corruption never raises" `Quick test_corrupt_never_raises;
      Alcotest.test_case "save/load" `Quick test_save_load;
      Alcotest.test_case "segment files" `Quick test_segments;
      Alcotest.test_case "sharded pause <-> serial resume" `Quick
        test_sharded_pause_resume;
      Alcotest.test_case "bisect (pure)" `Quick test_bisect_pure;
      Alcotest.test_case "bisect (simulation)" `Quick test_bisect_simulation;
    ] )
