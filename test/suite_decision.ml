open Netaddr
open Bgp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let prefix = Prefix.of_string "20.0.0.0/16"
let nh k = Ipv4.of_int (0x0A00_0000 + k)
let asn = Asn.of_int

let mk ?(lp = 100) ?(path = [ 100; 200 ]) ?(origin = Origin.Igp) ?med ?(nhop = 1) ()
    =
  Route.make ~local_pref:lp
    ~as_path:(As_path.of_asns (List.map asn path))
    ~origin ~med ~prefix ~next_hop:(nh nhop) ()

let cand ?(learned = Decision.Ibgp) ?(peer = 1) ?(igp = 10) route =
  Decision.candidate ~learned ~peer_id:(nh peer) ~peer_addr:(nh peer)
    ~igp_cost:igp route

let best = Decision.best ~med_mode:Decision.Per_neighbor_as
let winner cands = match best cands with Some c -> c | None -> Alcotest.fail "no winner"

let test_empty () = check_bool "none" true (best [] = None)

let test_local_pref () =
  let a = cand (mk ~lp:200 ~nhop:1 ()) in
  let b = cand (mk ~lp:100 ~path:[ 100 ] ~nhop:2 ()) in
  (* higher local-pref wins even against shorter path *)
  check_bool "lp wins" true (winner [ b; a ] == a)

let test_as_path_len () =
  let a = cand (mk ~path:[ 100 ] ~nhop:1 ()) in
  let b = cand (mk ~path:[ 100; 200 ] ~nhop:2 ()) in
  check_bool "shorter wins" true (winner [ b; a ] == a)

let test_origin () =
  let a = cand (mk ~origin:Origin.Igp ~nhop:1 ()) in
  let b = cand (mk ~origin:Origin.Egp ~nhop:2 ()) in
  let c = cand (mk ~origin:Origin.Incomplete ~nhop:3 ()) in
  check_bool "igp wins" true (winner [ c; b; a ] == a)

let test_med_same_as () =
  let a = cand (mk ~med:5 ~nhop:1 ()) in
  let b = cand (mk ~med:9 ~nhop:2 ()) in
  check_bool "low med wins" true (winner [ b; a ] == a)

let test_med_missing_is_best () =
  let a = cand (mk ~nhop:1 ()) in
  let b = cand (mk ~med:1 ~nhop:2 ()) in
  check_bool "missing med = 0" true (winner [ b; a ] == a)

let test_med_different_as () =
  (* per-neighbour-AS mode: MED must not discriminate across ASes; the
     high-MED route survives to step 6 and wins on IGP cost *)
  let a = cand ~igp:50 (mk ~path:[ 100; 200 ] ~med:0 ~nhop:1 ()) in
  let b = cand ~igp:10 (mk ~path:[ 300; 200 ] ~med:99 ~nhop:2 ()) in
  check_bool "igp decides across ASes" true (winner [ a; b ] == b);
  (* always-compare mode: MED decides *)
  let w =
    match Decision.best ~med_mode:Decision.Always_compare [ a; b ] with
    | Some c -> c
    | None -> Alcotest.fail "no winner"
  in
  check_bool "med decides when always-compare" true (w == a)

let test_ebgp_over_ibgp () =
  let a = cand ~learned:Decision.Ebgp ~igp:100 (mk ~nhop:1 ()) in
  let b = cand ~learned:Decision.Ibgp ~igp:1 (mk ~nhop:2 ()) in
  check_bool "ebgp wins" true (winner [ b; a ] == a)

let test_igp_cost () =
  let a = cand ~igp:5 (mk ~nhop:1 ()) in
  let b = cand ~igp:7 (mk ~nhop:2 ()) in
  check_bool "low igp wins" true (winner [ b; a ] == a)

let test_router_id () =
  let a = cand ~peer:1 ~igp:5 (mk ~nhop:1 ()) in
  let b = cand ~peer:2 ~igp:5 (mk ~nhop:2 ()) in
  check_bool "low router id wins" true (winner [ b; a ] == a)

let test_originator_overrides_router_id () =
  let ra = Route.update ~originator_id:(Some (nh 9)) (mk ~nhop:1 ()) in
  let rb = Route.update ~originator_id:(Some (nh 3)) (mk ~nhop:2 ()) in
  let a = cand ~peer:1 ~igp:5 ra in
  let b = cand ~peer:2 ~igp:5 rb in
  (* b's originator (3) beats a's (9) even though peer 1 < peer 2 *)
  check_bool "originator id used" true (winner [ a; b ] == b)

let test_steps_1_to_4 () =
  let a = cand (mk ~med:0 ~nhop:1 ()) in
  let b = cand (mk ~med:5 ~nhop:2 ()) in
  let c = cand (mk ~path:[ 300; 200 ] ~med:9 ~nhop:3 ()) in
  let survivors = Decision.steps_1_to_4 ~med_mode:Decision.Per_neighbor_as [ a; b; c ] in
  (* b killed by a's MED (same AS 100); c survives (different AS) *)
  check_int "two survive" 2 (List.length survivors);
  check_bool "a in" true (List.memq a survivors);
  check_bool "c in" true (List.memq c survivors);
  let survivors' = Decision.steps_1_to_4 ~med_mode:Decision.Always_compare [ a; b; c ] in
  check_int "always-compare keeps min only" 1 (List.length survivors')

let test_tie_break_step () =
  let a = cand ~igp:5 (mk ~nhop:1 ()) in
  let b = cand ~igp:7 (mk ~nhop:2 ()) in
  check_int "igp step" 6
    (Decision.tie_break_step ~med_mode:Decision.Per_neighbor_as [ a; b ]);
  check_int "single" 0 (Decision.tie_break_step ~med_mode:Decision.Per_neighbor_as [ a ])

let test_rank_total () =
  let cands =
    [
      cand ~peer:4 ~igp:9 (mk ~nhop:4 ());
      cand ~peer:3 ~igp:3 (mk ~nhop:3 ());
      cand ~peer:2 ~igp:7 (mk ~path:[ 100 ] ~nhop:2 ());
    ]
  in
  let ranked = Decision.rank ~med_mode:Decision.Per_neighbor_as cands in
  check_int "all ranked" 3 (List.length ranked);
  check_bool "shortest path first" true
    (As_path.length (Route.as_path (List.hd ranked).Decision.route) = 1)

let prop_best_is_rank_head =
  QCheck.Test.make ~name:"best = head of rank" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_bound 100) (int_bound 3)))
    (fun specs ->
      let cands =
        List.mapi
          (fun i (igp, pathlen) ->
            cand ~peer:(i + 1) ~igp
              (mk ~path:(List.init (pathlen + 1) (fun j -> 100 + j)) ~nhop:(i + 1) ()))
          specs
      in
      match (best cands, Decision.rank ~med_mode:Decision.Per_neighbor_as cands) with
      | Some b, r :: _ -> b == r
      | None, [] -> true
      | _ -> false)

let gen_candidate =
  let open QCheck.Gen in
  let* asn = int_range 0 2 in
  let* med = opt (int_range 0 30) in
  let* lp = int_range 90 110 in
  let* pathlen = int_range 1 3 in
  let* igp = int_range 1 100 in
  let* peer = int_range 1 50 in
  let* ebgp = bool in
  return
    (cand
       ~learned:(if ebgp then Decision.Ebgp else Decision.Ibgp)
       ~peer ~igp
       (mk ~lp
          ~path:(List.init pathlen (fun j -> 100 + (asn * 10) + j))
          ?med ~nhop:peer ()))

let arb_candidates = QCheck.make QCheck.Gen.(list_size (int_range 1 12) gen_candidate)

let prop_best_in_survivors =
  QCheck.Test.make ~name:"best survives steps 1-4" ~count:300 arb_candidates
    (fun cands ->
      List.for_all
        (fun med_mode ->
          match Decision.best ~med_mode cands with
          | None -> cands = []
          | Some b -> List.memq b (Decision.steps_1_to_4 ~med_mode cands))
        [ Decision.Always_compare; Decision.Per_neighbor_as ])

let prop_survivors_subset =
  QCheck.Test.make ~name:"steps 1-4 return a non-empty subset" ~count:300
    arb_candidates
    (fun cands ->
      List.for_all
        (fun med_mode ->
          let s = Decision.steps_1_to_4 ~med_mode cands in
          s <> [] && List.for_all (fun c -> List.memq c cands) s)
        [ Decision.Always_compare; Decision.Per_neighbor_as ])

let prop_order_independent_always_compare =
  QCheck.Test.make ~name:"best is input-order independent (always-compare)"
    ~count:300 arb_candidates
    (fun cands ->
      let b1 = Decision.best ~med_mode:Decision.Always_compare cands in
      let b2 = Decision.best ~med_mode:Decision.Always_compare (List.rev cands) in
      match (b1, b2) with
      | Some a, Some b -> a == b
      | None, None -> true
      | _ -> false)

let prop_losers_do_not_matter =
  QCheck.Test.make ~name:"removing a loser never changes the winner (always-compare)"
    ~count:300 arb_candidates
    (fun cands ->
      match Decision.best ~med_mode:Decision.Always_compare cands with
      | None -> true
      | Some w ->
        List.for_all
          (fun dropped ->
            dropped == w
            ||
            match
              Decision.best ~med_mode:Decision.Always_compare
                (List.filter (fun c -> c != dropped) cands)
            with
            | Some w' -> w' == w
            | None -> false)
          cands)

(* ---- differential: scratch-buffer kernel vs the retained naive
   list implementation (Decision.Naive). The generator deliberately
   provokes the MED corner cases: small neighbour-AS pool so several
   candidates share an AS, missing MEDs, non-transitive orderings, and
   confed/set segments so path-length accounting is exercised. *)

let gen_rich_candidate =
  let open QCheck.Gen in
  let* neighbor_as = int_range 0 3 in
  let* med = opt (int_range 0 5) in
  let* lp = int_range 99 101 in
  let* origin = oneofl [ Origin.Igp; Origin.Egp; Origin.Incomplete ] in
  let* pathlen = int_range 0 2 in
  let* confed = bool in
  let* aset = bool in
  let* igp = int_range 1 20 in
  let* peer = int_range 1 30 in
  let* ebgp = bool in
  let* orig_id = opt (int_range 1 9) in
  let segs =
    (if confed then [ As_path.Confed_seq [ asn 64512; asn 64513 ] ] else [])
    @ [ As_path.Seq (List.init (pathlen + 1) (fun j -> asn (100 + (neighbor_as * 10) + j))) ]
    @ (if aset then [ As_path.Set [ asn 900; asn 901 ] ] else [])
  in
  let route =
    Route.make ~local_pref:lp ~origin ~med
      ~as_path:(As_path.of_segments segs)
      ~prefix ~next_hop:(nh peer) ()
  in
  let route = Route.update ~originator_id:(Option.map nh orig_id) route in
  return
    (cand
       ~learned:(if ebgp then Decision.Ebgp else Decision.Ibgp)
       ~peer ~igp route)

let arb_rich_candidates =
  QCheck.make QCheck.Gen.(list_size (int_range 0 16) gen_rich_candidate)

let both_modes = [ Decision.Always_compare; Decision.Per_neighbor_as ]

(* The push-fed entry over [cands], each candidate pushed with its
   input position as [src]: the winner's position ([-1] when empty) and
   the survivors' positions, read back by slot. Each slot's route must be
   the route pushed at that position. *)
let push_fed ~med_mode cands =
  let module K = Decision.Scratch in
  let s = K.get () in
  K.clear s;
  List.iteri
    (fun i (c : Decision.candidate) ->
      K.push s c.route c.learned ~peer_id:c.peer_id ~peer_addr:c.peer_addr
        ~igp_cost:c.igp_cost ~src:i ~tag:(-i))
    cands;
  K.run ~med_mode s;
  let pos slot =
    let i = K.src s slot in
    if (List.nth cands i).Decision.route != K.route s slot || K.tag s slot <> -i
    then Alcotest.fail "slot columns out of step";
    i
  in
  let w = K.winner s in
  ( (if w < 0 then -1 else pos w),
    List.init (K.survivors s) (fun k -> pos (K.survivor s k)) )

let rec position c i = function
  | [] -> -1
  | c' :: cs -> if c' == c then i else position c (i + 1) cs

(* Both MED modes, over the generated set and over its twin, where each
   candidate is followed by a physically distinct copy: the twin's best
   ties after step 8, and the first minimum must win. *)
let cases cands =
  let twin =
    List.concat_map
      (fun (c : Decision.candidate) -> [ c; { c with igp_cost = c.igp_cost } ])
      cands
  in
  List.concat_map (fun m -> [ (m, cands); (m, twin) ]) both_modes

let prop_kernel_matches_naive_best =
  QCheck.Test.make
    ~name:"kernel best = naive best (both MED modes)" ~count:500
    arb_rich_candidates
    (fun cands ->
      List.for_all
        (fun (med_mode, cands) ->
          let naive = Decision.Naive.best ~med_mode cands in
          let list_entry =
            match (Decision.best ~med_mode cands, naive) with
            | Some a, Some b -> a == b
            | None, None -> true
            | _ -> false
          in
          let pushed, _ = push_fed ~med_mode cands in
          let expected =
            match naive with None -> -1 | Some b -> position b 0 cands
          in
          list_entry && pushed = expected)
        (cases cands))

let prop_kernel_matches_naive_steps =
  QCheck.Test.make
    ~name:"kernel steps 1-4 = naive steps 1-4, same order (both MED modes)"
    ~count:500 arb_rich_candidates
    (fun cands ->
      List.for_all
        (fun (med_mode, cands) ->
          let k = Decision.steps_1_to_4 ~med_mode cands in
          let n = Decision.Naive.steps_1_to_4 ~med_mode cands in
          let _, pushed = push_fed ~med_mode cands in
          List.length k = List.length n
          && List.for_all2 ( == ) k n
          && pushed = List.map (fun c -> position c 0 cands) n)
        (cases cands))

(* ---- incremental decision: the intrinsic_loses fast-path predicate.
   Soundness contract (decision.mli): a strict loss against a
   steps-1-4-surviving incumbent on the route-intrinsic key prefix means
   the challenger is eliminated in steps 1-4 of any candidate set
   containing that incumbent, so its arrival or departure cannot move
   the survivor list. *)

let test_intrinsic_loses () =
  let il ?(mode = Decision.Per_neighbor_as) inc r =
    Decision.intrinsic_loses ~med_mode:mode ~incumbent:inc r
  in
  let base = mk () in
  check_bool "lower lp loses" true (il base (mk ~lp:99 ()));
  check_bool "higher lp does not" false (il base (mk ~lp:101 ()));
  check_bool "longer path loses" true (il base (mk ~path:[ 100; 200; 300 ] ()));
  check_bool "shorter path does not" false (il base (mk ~path:[ 100 ] ()));
  check_bool "worse origin loses" true (il base (mk ~origin:Origin.Egp ()));
  check_bool "equal key is not a strict loss" false (il base (mk ~nhop:9 ()));
  (* step 4: MED only discriminates inside the incumbent's neighbour AS
     under per-neighbor-AS mode, everywhere under always-compare *)
  let inc_med = mk ~med:2 () in
  check_bool "same-AS higher MED loses" true (il inc_med (mk ~med:7 ()));
  check_bool "same-AS lower MED does not" false (il inc_med (mk ~med:1 ()));
  check_bool "cross-AS MED ignored (per-neighbor-AS)" false
    (il inc_med (mk ~path:[ 300; 200 ] ~med:7 ()));
  check_bool "cross-AS MED compared (always-compare)" true
    (il ~mode:Decision.Always_compare inc_med (mk ~path:[ 300; 200 ] ~med:7 ()));
  check_bool "missing MED ranks best" false (il inc_med (mk ()))

let arb_rich_with_challenger =
  QCheck.make
    QCheck.Gen.(pair (list_size (int_range 0 16) gen_rich_candidate) gen_rich_candidate)

let prop_intrinsic_reject_sound =
  QCheck.Test.make
    ~name:"intrinsic_loses arrival: adding the loser moves nothing (both modes)"
    ~count:500 arb_rich_with_challenger
    (fun (cands, challenger) ->
      List.for_all
        (fun med_mode ->
          match Decision.steps_1_to_4 ~med_mode cands with
          | [] -> true
          | inc :: _ as s ->
            (not
               (Decision.intrinsic_loses ~med_mode ~incumbent:inc.Decision.route
                  challenger.Decision.route))
            ||
            let with_c = cands @ [ challenger ] in
            let s' = Decision.steps_1_to_4 ~med_mode with_c in
            List.length s = List.length s'
            && List.for_all2 ( == ) s s'
            &&
            (match (Decision.best ~med_mode cands, Decision.best ~med_mode with_c) with
            | Some a, Some b -> a == b
            | _ -> false))
        both_modes)

let prop_intrinsic_withdraw_sound =
  QCheck.Test.make
    ~name:"intrinsic_loses withdraw: dropping a loser moves nothing (both modes)"
    ~count:500 arb_rich_candidates
    (fun cands ->
      List.for_all
        (fun med_mode ->
          match Decision.steps_1_to_4 ~med_mode cands with
          | [] -> true
          | inc :: _ as s ->
            List.for_all
              (fun c ->
                c == inc
                || (not
                      (Decision.intrinsic_loses ~med_mode
                         ~incumbent:inc.Decision.route c.Decision.route))
                ||
                let rest = List.filter (fun x -> x != c) cands in
                let s' = Decision.steps_1_to_4 ~med_mode rest in
                (* an intrinsic loser is not a survivor, so the survivor
                   list of the shrunken set is the unchanged original *)
                List.length s = List.length s'
                && List.for_all2 ( == ) s s'
                &&
                (match
                   (Decision.best ~med_mode cands, Decision.best ~med_mode rest)
                 with
                | Some a, Some b -> a == b
                | _ -> false))
              cands)
        both_modes)

(* ---- network-level churn oracle: the same random sequence of
   announce / replace / withdraw / session-flush events drives two
   identical networks, one per Config.decision engine. After every
   event both must agree on every router's winner for every prefix, and
   at the end the full snapshot digests (RIBs, counters, clock, random
   stream) must be equal — the property the CI deterministic profile
   re-checks on the bench workload. *)

module AC = Abrr_core.Config
module AN = Abrr_core.Network

let churn_prefixes =
  [| prefix; Prefix.of_string "21.0.0.0/16"; Prefix.of_string "22.0.0.0/16" |]

type churn_op =
  | Announce of int * int * int * int * int * int option * bool
      (* router, neighbor k, prefix ix, path_id, lp, med, confed seg *)
  | Withdraw of int * int * int * int (* router, neighbor k, prefix ix, path_id *)
  | Flush of int (* session flush: fail the router, then recover it *)

let gen_churn_op n =
  let open QCheck.Gen in
  let* router = int_range 0 (n - 1) in
  frequency
    [
      ( 6,
        let* k = int_range 1 3 in
        let* p = int_range 0 2 in
        let* pid = int_range 0 1 in
        let* lp = int_range 99 101 in
        let* med = opt (int_range 0 3) in
        let* confed = bool in
        return (Announce (router, k, p, pid, lp, med, confed)) );
      ( 3,
        let* k = int_range 1 3 in
        let* p = int_range 0 2 in
        let* pid = int_range 0 1 in
        return (Withdraw (router, k, p, pid)) );
      (1, return (Flush router));
    ]

let print_churn_op = function
  | Announce (r, k, p, pid, lp, med, confed) ->
    Printf.sprintf "announce r%d n%d p%d id%d lp%d med%s%s" r k p pid lp
      (match med with Some m -> string_of_int m | None -> "-")
      (if confed then " confed" else "")
  | Withdraw (r, k, p, pid) -> Printf.sprintf "withdraw r%d n%d p%d id%d" r k p pid
  | Flush r -> Printf.sprintf "flush r%d" r

let churn_route ~k ~p ~pid ~lp ~med ~confed =
  (* two neighbour ASes (by low bit of k) so MEDs collide inside an AS
     group; optional confed segment so path-length accounting and
     first_as stripping stay honest *)
  let segs =
    (if confed then [ As_path.Confed_seq [ asn 64512 ] ] else [])
    @ [ As_path.Seq [ asn (7000 + (k mod 2)); asn 65500 ] ]
  in
  Route.make ~path_id:pid ~local_pref:lp ~med
    ~as_path:(As_path.of_segments segs)
    ~prefix:churn_prefixes.(p)
    ~next_hop:(Helpers.neighbor k) ()

let run_churn ~med_mode ~abrr ops =
  let n = if abrr then 6 else 5 in
  let cfg decision =
    let base =
      if abrr then Helpers.single_ap_abrr ~med_mode ~n ()
      else Helpers.full_mesh_config ~med_mode n
    in
    { base with AC.decision }
  in
  let inc = AN.create (cfg AC.Incremental) in
  let nai = AN.create (cfg AC.Naive) in
  let agree () =
    List.for_all
      (fun i ->
        Array.for_all
          (fun p ->
            match (AN.best inc ~router:i p, AN.best nai ~router:i p) with
            | Some a, Some b -> Route.equal a b
            | None, None -> true
            | _ -> false)
          churn_prefixes)
      (List.init n Fun.id)
  in
  let settle () =
    Helpers.quiesce ~check:false inc;
    Helpers.quiesce ~check:false nai;
    agree ()
  in
  let both f = f inc; f nai in
  let step = function
    | Announce (r, k, p, pid, lp, med, confed) ->
      both (fun net ->
          AN.inject net ~router:r ~neighbor:(Helpers.neighbor k)
            (churn_route ~k ~p ~pid ~lp ~med ~confed));
      settle ()
    | Withdraw (r, k, p, pid) ->
      both (fun net ->
          AN.withdraw net ~router:r ~neighbor:(Helpers.neighbor k)
            churn_prefixes.(p) ~path_id:pid);
      settle ()
    | Flush r ->
      both (fun net -> AN.fail net ~router:r);
      let ok = settle () in
      both (fun net -> AN.recover net ~router:r);
      ok && settle ()
  in
  List.for_all step ops
  &&
  match (Snapshot.digest inc, Snapshot.digest nai) with
  | Ok a, Ok b -> a = b
  | _ -> false

(* The fast paths must actually fire: a losing arrival and a
   non-incumbent withdrawal on a converged full mesh must classify as
   Delta (and a no-op re-announce as Skipped), not fall back to Full —
   otherwise the engine silently degrades to the naive cost model. *)
let test_delta_path_taken () =
  let net = AN.create { (Helpers.full_mesh_config 5) with AC.decision = AC.Incremental } in
  let strong = churn_route ~k:1 ~p:0 ~pid:0 ~lp:101 ~med:None ~confed:false in
  AN.inject net ~router:0 ~neighbor:(Helpers.neighbor 1) strong;
  Helpers.quiesce ~check:false net;
  let base = Abrr_core.Counters.copy (AN.total_counters net) in
  (* losing arrival: lp 99 < incumbent's 101 everywhere *)
  let weak = churn_route ~k:2 ~p:0 ~pid:0 ~lp:99 ~med:None ~confed:false in
  AN.inject net ~router:1 ~neighbor:(Helpers.neighbor 2) weak;
  Helpers.quiesce ~check:false net;
  (* non-incumbent withdrawal of that same loser *)
  AN.withdraw net ~router:1 ~neighbor:(Helpers.neighbor 2) churn_prefixes.(0)
    ~path_id:0;
  Helpers.quiesce ~check:false net;
  (* no-op re-announce: identical route, in-place replace *)
  AN.inject net ~router:0 ~neighbor:(Helpers.neighbor 1) strong;
  Helpers.quiesce ~check:false net;
  let d = Abrr_core.Counters.diff ~after:(AN.total_counters net) ~before:base in
  check_bool "delta path fired" true (d.Abrr_core.Counters.decisions_delta > 0);
  check_bool "skip path fired" true (d.Abrr_core.Counters.decisions_skipped > 0);
  check_bool "winner intact" true
    (match AN.best net ~router:3 churn_prefixes.(0) with
    | Some r -> Route.local_pref r = 101
    | None -> false)

let arb_churn n =
  QCheck.make
    ~print:(fun (abrr, ops) ->
      Printf.sprintf "%s: %s"
        (if abrr then "abrr" else "full-mesh")
        (String.concat "; " (List.map print_churn_op ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 12) (gen_churn_op n)))

let prop_incremental_matches_naive_churn mode_name med_mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "incremental = naive under random churn (%s), digests equal" mode_name)
    ~count:12 (arb_churn 5)
    (fun (abrr, ops) -> run_churn ~med_mode ~abrr ops)

let suite =
  ( "decision",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "step 1: local pref" `Quick test_local_pref;
      Alcotest.test_case "step 2: AS path length" `Quick test_as_path_len;
      Alcotest.test_case "step 3: origin" `Quick test_origin;
      Alcotest.test_case "step 4: MED same AS" `Quick test_med_same_as;
      Alcotest.test_case "step 4: missing MED" `Quick test_med_missing_is_best;
      Alcotest.test_case "step 4: MED across ASes" `Quick test_med_different_as;
      Alcotest.test_case "step 5: eBGP over iBGP" `Quick test_ebgp_over_ibgp;
      Alcotest.test_case "step 6: IGP cost" `Quick test_igp_cost;
      Alcotest.test_case "step 7: router id" `Quick test_router_id;
      Alcotest.test_case "step 7: originator id" `Quick
        test_originator_overrides_router_id;
      Alcotest.test_case "steps 1-4 (best AS-level)" `Quick test_steps_1_to_4;
      Alcotest.test_case "tie-break step report" `Quick test_tie_break_step;
      Alcotest.test_case "rank" `Quick test_rank_total;
      QCheck_alcotest.to_alcotest prop_best_is_rank_head;
      QCheck_alcotest.to_alcotest prop_best_in_survivors;
      QCheck_alcotest.to_alcotest prop_survivors_subset;
      QCheck_alcotest.to_alcotest prop_order_independent_always_compare;
      QCheck_alcotest.to_alcotest prop_losers_do_not_matter;
      QCheck_alcotest.to_alcotest prop_kernel_matches_naive_best;
      QCheck_alcotest.to_alcotest prop_kernel_matches_naive_steps;
      Alcotest.test_case "intrinsic_loses (per step)" `Quick test_intrinsic_loses;
      QCheck_alcotest.to_alcotest prop_intrinsic_reject_sound;
      QCheck_alcotest.to_alcotest prop_intrinsic_withdraw_sound;
      Alcotest.test_case "delta/skip fast paths fire" `Quick test_delta_path_taken;
      QCheck_alcotest.to_alcotest
        (prop_incremental_matches_naive_churn "per-neighbor-as"
           Decision.Per_neighbor_as);
      QCheck_alcotest.to_alcotest
        (prop_incremental_matches_naive_churn "always-compare"
           Decision.Always_compare);
    ] )
