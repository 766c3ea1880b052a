(* Abrr_core.Adj_in: the prefix-major Adj-RIB-In plane against an
   association-list model, and the Prefix key arithmetic its descents
   use against the record-level [subsumes]/[bit]. *)

open Netaddr
module A = Abrr_core.Adj_in
module Route = Bgp.Route

(* Nested and sibling prefixes from /0 to /32: every address of [bases]
   at every length of [lens], canonicalised (so several coincide). *)
let pool =
  let bases = [ 0; 0x0A00_0000; 0x0A00_0001; 0x0A80_0000; 0x8000_0000; 0xFFFF_FFFF ] in
  let lens = [ 0; 1; 8; 9; 16; 24; 31; 32 ] in
  List.concat_map (fun a -> List.map (fun l -> Prefix.make (Ipv4.of_int a) l) lens) bases
  |> List.sort_uniq Prefix.compare
  |> Array.of_list

let max_src = 40

type op =
  | Exchange of int * int * int  (* prefix index, source, route count *)
  | Drop_source of int
  | Clear_prefix of int
  | Clear

let op_gen =
  let pi = QCheck.Gen.int_bound (Array.length pool - 1) in
  let src = QCheck.Gen.int_bound max_src in
  QCheck.Gen.(
    frequency
      [
        (12, map3 (fun p s n -> Exchange (p, s, n)) pi src (int_bound 3));
        (2, map (fun s -> Drop_source s) src);
        (2, map (fun p -> Clear_prefix p) pi);
        (1, return Clear);
      ])

let show_op = function
  | Exchange (p, s, n) ->
    Printf.sprintf "exchange %s src %d x%d" (Prefix.to_string pool.(p)) s n
  | Drop_source s -> Printf.sprintf "drop_source %d" s
  | Clear_prefix p -> Printf.sprintf "clear_prefix %s" (Prefix.to_string pool.(p))
  | Clear -> "clear"

(* Distinct sets: the step number tags the local preference. *)
let routes_for p src n step =
  List.init n (fun id ->
      Route.update ~local_pref:step (Helpers.route ~path_id:id ~prefix:p src))

(* The model: ((source, prefix key), non-empty routes). *)
let model_get model src p =
  Option.value (List.assoc_opt (src, Prefix.to_key p) model) ~default:[]

let model_set model src p routes =
  let rest = List.remove_assoc (src, Prefix.to_key p) model in
  if routes = [] then rest else ((src, Prefix.to_key p), routes) :: rest

let same_routes = List.equal Route.equal

(* [A.iter_by_source] as a list, with the counts it announces checked
   against what it hands over. *)
let walk t =
  let announced = ref (-1) and srcs = ref [] and pending = ref 0 in
  let close () =
    if !pending <> 0 then QCheck.Test.fail_reportf "source announced %d more entries" !pending
  in
  A.iter_by_source t
    ~sources:(fun n -> announced := n)
    ~source:(fun src k ->
      close ();
      pending := k;
      srcs := (src, ref []) :: !srcs)
    ~entry:(fun key routes ->
      decr pending;
      match !srcs with
      | (_, entries) :: _ -> entries := (Prefix.of_key key, routes) :: !entries
      | [] -> QCheck.Test.fail_report "entry before any source");
  close ();
  if !announced <> List.length !srcs then
    QCheck.Test.fail_reportf "announced %d sources, walked %d" !announced (List.length !srcs);
  List.rev_map (fun (src, entries) -> (src, List.rev !entries)) !srcs

let check_state t model =
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  Array.iter
    (fun p ->
      for src = 0 to max_src do
        if not (same_routes (A.get t p src) (model_get model src p)) then
          fail "get %s src %d" (Prefix.to_string p) src
      done;
      let n = A.node t p in
      let walked = List.init (A.width n) (fun i -> (A.src n i, A.routes n i)) in
      List.iteri
        (fun i (src, routes) ->
          if routes = [] then fail "empty slot at %s" (Prefix.to_string p);
          if i > 0 && fst (List.nth walked (i - 1)) >= src then
            fail "slots not ascending at %s" (Prefix.to_string p))
        walked;
      let expected =
        List.filter_map
          (fun ((src, k), routes) -> if k = Prefix.to_key p then Some (src, routes) else None)
          model
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      if not (List.equal (fun (a, x) (b, y) -> a = b && same_routes x y) walked expected)
      then fail "slot walk at %s" (Prefix.to_string p))
    pool;
  let entries = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 model in
  if A.entry_count t <> entries then fail "entry_count %d <> %d" (A.entry_count t) entries;
  let visited = ref [] in
  A.iter_prefixes (fun p -> visited := p :: !visited) t;
  let expected_prefixes =
    List.sort_uniq Prefix.compare (List.map (fun ((_, k), _) -> Prefix.of_key k) model)
  in
  if not (List.equal Prefix.equal (List.rev !visited) expected_prefixes) then
    fail "iter_prefixes order";
  let expected_dump =
    List.sort_uniq Int.compare (List.map (fun ((src, _), _) -> src) model)
    |> List.map (fun src ->
           ( src,
             List.filter_map
               (fun ((s, k), routes) -> if s = src then Some (k, routes) else None)
               model
             |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
             |> List.map (fun (k, routes) -> (Prefix.of_key k, routes)) ))
  in
  let same_entries =
    List.equal (fun (p, x) (q, y) -> Prefix.equal p q && same_routes x y)
  in
  if not (List.equal (fun (a, x) (b, y) -> a = b && same_entries x y) (walk t) expected_dump)
  then fail "source-major walk"

let step t model k op =
  match op with
  | Exchange (pi, src, n) ->
    let p = pool.(pi) in
    let routes = routes_for p src n k in
    let old = A.exchange t p src routes in
    if not (same_routes old (model_get model src p)) then
      QCheck.Test.fail_report "exchange returned the wrong previous set";
    model_set model src p routes
  | Drop_source src ->
    let dropped = A.drop_source t src in
    let expected =
      List.filter_map (fun ((s, k), _) -> if s = src then Some k else None) model
      |> List.sort Int.compare |> List.map Prefix.of_key
    in
    if not (List.equal Prefix.equal dropped expected) then
      QCheck.Test.fail_report "drop_source prefixes";
    List.filter (fun ((s, _), _) -> s <> src) model
  | Clear_prefix pi ->
    let key = Prefix.to_key pool.(pi) in
    let cleared = A.clear_prefix t pool.(pi) in
    let expected = List.length (List.filter (fun ((_, k), _) -> k = key) model) in
    if cleared <> expected then QCheck.Test.fail_reportf "clear_prefix %d <> %d" cleared expected;
    List.filter (fun ((_, k), _) -> k <> key) model
  | Clear ->
    A.clear t;
    []

let prop_model =
  QCheck.Test.make ~name:"Adj_in = association-list model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 0 80) op_gen))
    (fun ops ->
      let t = A.create () in
      let model = ref [] in
      List.iteri
        (fun k op ->
          model := step t !model (k + 1) op;
          check_state t !model)
        ops;
      true)

(* Addresses near one another, so that prefix pairs nest and share long
   common prefixes often. *)
let pair_gen =
  QCheck.Gen.(
    map
      (fun (((hi, lo), flip), (lp, lq)) ->
        let a = (hi lsl 16) lor lo in
        let b = if flip < 32 then a lxor (1 lsl flip) else a in
        (Prefix.make (Ipv4.of_int a) lp, Prefix.make (Ipv4.of_int b) lq))
      (pair
         (pair (pair (int_bound 0xFFFF) (int_bound 0xFFFF)) (int_bound 40))
         (pair (int_bound 32) (int_bound 32))))

let prop_key_arithmetic =
  QCheck.Test.make ~name:"Prefix key helpers = subsumes/bit" ~count:1000
    QCheck.(
      make
        ~print:(fun (p, q) -> Prefix.to_string p ^ " " ^ Prefix.to_string q)
        pair_gen)
    (fun (p, q) ->
      let kp = Prefix.to_key p and kq = Prefix.to_key q in
      let c = Prefix.of_key (Prefix.key_common kp kq) in
      let l = Prefix.len c in
      Prefix.key_len kp = Prefix.len p
      && Prefix.key_subsumes kp kq = Prefix.subsumes p q
      && Prefix.key_subsumes kq kp = Prefix.subsumes q p
      && List.for_all
           (fun i -> Prefix.key_bit kp i = Prefix.bit p i)
           (List.init (Prefix.len p) Fun.id)
      && Prefix.equal c (Prefix.make (Prefix.addr c) l)
      && Prefix.subsumes c p && Prefix.subsumes c q
      && (l = min (Prefix.len p) (Prefix.len q) || Prefix.bit p l <> Prefix.bit q l)
      && Int.compare kp kq = Prefix.compare p q)

let suite =
  ( "adj_in",
    [
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_key_arithmetic;
    ] )
