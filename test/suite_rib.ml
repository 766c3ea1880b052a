open Netaddr
open Bgp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let p1 = Prefix.of_string "20.0.0.0/16"
let p2 = Prefix.of_string "21.0.0.0/16"
let nh k = Ipv4.of_int k
let mk prefix id = Route.make ~path_id:id ~prefix ~next_hop:(nh (1000 + id)) ()

(* The prefixes holding routes, in [Rib.fold] order. *)
let stored rib = List.rev (Rib.fold (fun p _ acc -> p :: acc) rib [])

let test_upsert_counts () =
  let rib = Rib.create () in
  check_bool "new" true (Rib.upsert rib (mk p1 1));
  check_bool "second path" true (Rib.upsert rib (mk p1 2));
  check_bool "other prefix" true (Rib.upsert rib (mk p2 1));
  check_int "entries" 3 (Rib.entry_count rib);
  check_int "prefixes" 2 (List.length (stored rib));
  (* replacing with an identical route reports no change *)
  check_bool "idempotent" false (Rib.upsert rib (mk p1 1));
  check_int "entries stable" 3 (Rib.entry_count rib);
  (* replacing with different attrs reports change, count stable *)
  let changed = Rib.upsert rib (Route.update ~local_pref:300 (mk p1 1)) in
  check_bool "attr change" true changed;
  check_int "entries still" 3 (Rib.entry_count rib)

let test_drop () =
  let rib = Rib.create () in
  ignore (Rib.upsert rib (mk p1 1));
  ignore (Rib.upsert rib (mk p1 2));
  check_bool "drop" true (Rib.drop rib p1 ~path_id:1);
  check_bool "drop absent" false (Rib.drop rib p1 ~path_id:1);
  check_int "entries" 1 (Rib.entry_count rib);
  check_bool "remaining" true
    (match Rib.get rib p1 with [ r ] -> r.Route.path_id = 2 | _ -> false)

let test_upsert_keeps_position () =
  (* the single-pass replace swaps the entry where it sits instead of
     removing + re-appending, so sibling order is stable *)
  let rib = Rib.create () in
  List.iter (fun id -> ignore (Rib.upsert rib (mk p1 id))) [ 1; 2; 3 ];
  ignore (Rib.upsert rib (Route.update ~local_pref:300 (mk p1 2)));
  check_bool "order preserved" true
    (List.map (fun r -> r.Route.path_id) (Rib.get rib p1) = [ 1; 2; 3 ]);
  check_bool "replaced in place" true
    (match Rib.get rib p1 with
    | [ _; r; _ ] -> Route.local_pref r = 300
    | _ -> false)

let test_set () =
  let rib = Rib.create () in
  Rib.set rib p1 [ mk p1 1; mk p1 2; mk p1 3 ];
  check_int "entries" 3 (Rib.entry_count rib);
  Rib.set rib p1 [ mk p1 9 ];
  check_int "replaced" 1 (Rib.entry_count rib);
  Rib.set rib p1 [];
  check_int "cleared" 0 (Rib.entry_count rib);
  check_bool "gone" true (Rib.get rib p1 = [] && stored rib = [])

let test_clear_prefix () =
  let rib = Rib.create () in
  Rib.set rib p1 [ mk p1 1; mk p1 2 ];
  Rib.set rib p2 [ mk p2 1 ];
  check_int "held" 2 (List.length (Rib.get rib p1));
  Rib.set rib p1 [];
  check_bool "removed" true (Rib.get rib p1 = []);
  check_int "left" 1 (Rib.entry_count rib);
  check_bool "other prefix kept" true (List.equal Prefix.equal (stored rib) [ p2 ]);
  Rib.clear rib;
  check_int "clear all" 0 (Rib.entry_count rib)

let test_fold () =
  let rib = Rib.create () in
  Rib.set rib p1 [ mk p1 1 ];
  Rib.set rib p2 [ mk p2 1; mk p2 2 ];
  let total = Rib.fold (fun _ rs acc -> acc + List.length rs) rib 0 in
  check_int "fold" 3 total;
  check_bool "prefixes ascending" true (List.equal Prefix.equal (stored rib) [ p1; p2 ])

let prop_entry_count_invariant =
  QCheck.Test.make ~name:"entry_count tracks contents" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 50) (pair (int_bound 5) (int_bound 4)))
    (fun ops ->
      let rib = Rib.create () in
      let prefix_of i = Prefix.make (Ipv4.of_int (i * 0x0100_0000)) 8 in
      List.iter
        (fun (pi, id) ->
          if id = 4 then ignore (Rib.drop rib (prefix_of pi) ~path_id:0)
          else ignore (Rib.upsert rib (mk (prefix_of pi) id)))
        ops;
      let real = Rib.fold (fun _ rs acc -> acc + List.length rs) rib 0 in
      real = Rib.entry_count rib)

let test_longest_match () =
  let rib = Rib.create () in
  let covering = Prefix.of_string "20.0.0.0/8" in
  let specific = Prefix.of_string "20.1.0.0/16" in
  Rib.set rib covering [ mk covering 1 ];
  Rib.set rib specific [ mk specific 1 ];
  let lm a =
    Option.map fst (Rib.longest_match rib (Ipv4.of_string a))
  in
  check_bool "most specific wins" true (lm "20.1.2.3" = Some specific);
  check_bool "covering catches the rest" true (lm "20.2.0.1" = Some covering);
  check_bool "outside" true (lm "21.0.0.1" = None);
  Rib.set rib specific [];
  check_bool "withdrawn specific falls back" true (lm "20.1.2.3" = Some covering)

(* --- Trie vs list-model parity ---------------------------------------

   The compact trie must be observationally identical to the obvious
   association-list RIB under random op interleavings: same contents,
   same counts, same (ascending) iteration order, same longest match.
   The prefix pool nests deliberately (/8 .. /30 over two /8 subtrees)
   to exercise junction nodes, path compression and child splicing. *)

let parity_pool =
  [|
    "20.0.0.0/8"; "20.0.0.0/12"; "20.16.0.0/12"; "20.16.0.0/16";
    "20.16.128.0/17"; "20.16.0.0/20"; "20.16.5.0/24"; "20.16.5.128/30";
    "21.0.0.0/8"; "21.12.0.0/14"; "21.12.34.0/24"; "21.12.34.56/32";
  |]
  |> Array.map Prefix.of_string

type model_op = Upsert of int * int * int | Drop of int * int | Set of int * int

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun p id lp -> Upsert (p, id, lp))
          (int_bound (Array.length parity_pool - 1))
          (int_bound 3) (int_bound 2);
        map2
          (fun p id -> Drop (p, id))
          (int_bound (Array.length parity_pool - 1))
          (int_bound 3);
        map2
          (fun p n -> Set (p, n))
          (int_bound (Array.length parity_pool - 1))
          (int_bound 3);
      ])

let route_for p id lp =
  Route.update ~local_pref:(100 + lp) (mk parity_pool.(p) id)

(* The list model: (prefix, routes) assoc with the same position-
   preserving upsert semantics the RIB documents. *)
let model_upsert model p r =
  let rec replace = function
    | [] -> ([ r ], true)
    | (x : Route.t) :: tl when x.Route.path_id = r.Route.path_id ->
      (r :: tl, not (Route.equal x r))
    | x :: tl ->
      let tl', c = replace tl in
      (x :: tl', c)
  in
  match List.assoc_opt (Prefix.to_key p) !model with
  | None ->
    model := (Prefix.to_key p, (p, [ r ])) :: !model;
    true
  | Some (_, rs) ->
    let rs', changed = replace rs in
    model := (Prefix.to_key p, (p, rs')) :: List.remove_assoc (Prefix.to_key p) !model;
    changed

let model_drop model p id =
  match List.assoc_opt (Prefix.to_key p) !model with
  | None -> false
  | Some (_, rs) ->
    if List.exists (fun (r : Route.t) -> r.Route.path_id = id) rs then begin
      let rs' = List.filter (fun (r : Route.t) -> r.Route.path_id <> id) rs in
      model := List.remove_assoc (Prefix.to_key p) !model;
      if rs' <> [] then model := (Prefix.to_key p, (p, rs')) :: !model;
      true
    end
    else false

let model_set model p rs =
  model := List.remove_assoc (Prefix.to_key p) !model;
  if rs <> [] then model := (Prefix.to_key p, (p, rs)) :: !model

let model_contents model =
  List.sort (fun (_, (a, _)) (_, (b, _)) -> Prefix.compare a b) !model
  |> List.map snd

let model_lpm model addr =
  List.fold_left
    (fun best (_, (p, rs)) ->
      if Prefix.mem addr p then
        match best with
        | Some (bp, _) when Prefix.len bp >= Prefix.len p -> best
        | _ -> Some (p, rs)
      else best)
    None !model

let prop_trie_matches_list_model =
  QCheck.Test.make ~name:"trie RIB = list-model RIB" ~count:300
    QCheck.(make Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let rib = Rib.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Upsert (p, id, lp) ->
            let r = route_for p id lp in
            let a = Rib.upsert rib r in
            let b = model_upsert model parity_pool.(p) r in
            if a <> b then QCheck.Test.fail_report "upsert change bit differs"
          | Drop (p, id) ->
            let a = Rib.drop rib parity_pool.(p) ~path_id:id in
            let b = model_drop model parity_pool.(p) id in
            if a <> b then QCheck.Test.fail_report "drop presence bit differs"
          | Set (p, n) ->
            let rs = List.init n (fun id -> route_for p id 0) in
            Rib.set rib parity_pool.(p) rs;
            model_set model parity_pool.(p) rs)
        ops;
      let expected = model_contents model in
      let actual = Rib.fold (fun p rs acc -> (p, rs) :: acc) rib [] |> List.rev in
      let same_contents =
        List.length expected = List.length actual
        && List.for_all2
             (fun (p1, rs1) (p2, rs2) ->
               Prefix.equal p1 p2
               && List.length rs1 = List.length rs2
               && List.for_all2 Route.equal rs1 rs2)
             expected actual
      in
      let counts_ok =
        Rib.entry_count rib
        = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 expected
        && List.length (stored rib) = List.length expected
      in
      let gets_ok =
        Array.for_all
          (fun p ->
            let m =
              match List.assoc_opt (Prefix.to_key p) !model with
              | Some (_, rs) -> rs
              | None -> []
            in
            List.length m = List.length (Rib.get rib p)
            && List.for_all2 Route.equal m (Rib.get rib p)
            && (Rib.get rib p <> []) = (m <> []))
          parity_pool
      in
      let lpm_ok =
        List.for_all
          (fun a ->
            let addr = Ipv4.of_string a in
            match (Rib.longest_match rib addr, model_lpm model addr) with
            | None, None -> true
            | Some (p1, _), Some (p2, _) -> Prefix.equal p1 p2
            | _ -> false)
          [ "20.16.5.129"; "20.16.77.1"; "20.200.0.1"; "21.12.34.56";
            "21.12.35.1"; "22.0.0.1" ]
      in
      same_contents && counts_ok && gets_ok && lpm_ok
      || QCheck.Test.fail_report "trie diverged from list model")

let suite =
  ( "rib",
    [
      Alcotest.test_case "upsert counting" `Quick test_upsert_counts;
      Alcotest.test_case "drop" `Quick test_drop;
      Alcotest.test_case "upsert keeps position" `Quick test_upsert_keeps_position;
      Alcotest.test_case "set replaces" `Quick test_set;
      Alcotest.test_case "clear" `Quick test_clear_prefix;
      Alcotest.test_case "fold/prefixes" `Quick test_fold;
      QCheck_alcotest.to_alcotest prop_entry_count_invariant;
      Alcotest.test_case "longest match" `Quick test_longest_match;
      QCheck_alcotest.to_alcotest prop_trie_matches_list_model;
    ] )
