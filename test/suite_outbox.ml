(* The router's output side: the order and sharing of the lists
   [Outbox.flush] hands each destination. *)

open Netaddr
module Proto = Abrr_core.Proto
module Outbox = Abrr_core.Outbox

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let self = 2

(* An outbox of router [self] with MRAI off whose transmissions land in
   [sent], newest first. *)
let outbox sent =
  Outbox.create ~id:self ~config:(Helpers.single_ap_abrr ~n:8 ())
    ~counters:(Abrr_core.Counters.create ()) ~now:(fun () -> Eventsim.Time.zero)
    ~schedule_flush:(fun ~peer:_ _ -> ())
    ~transmit:(fun ~dst ~bytes:_ ~msgs:_ items -> sent := (dst, items) :: !sent)

let prefixes =
  [| Prefix.of_string "20.0.0.0/16"; Prefix.of_string "20.0.0.0/24";
     Prefix.of_string "21.0.0.0/16"; Prefix.of_string "30.0.0.0/14" |]

let channels = [| Proto.Mesh; Proto.To_arr; Proto.From_arr; Proto.From_trr |]

let item c p k : Proto.item =
  let prefix = prefixes.(p) in
  ( channels.(c),
    Proto.delta prefix
      [ Bgp.Route.make ~path_id:k ~prefix ~next_hop:(Ipv4.of_int (0x0A00_0000 + k)) () ] )

(* One emit: an item enqueued to every target in ascending order, with a
   substitute of the same key for one of them (the per-target split
   horizon of [Router.emit]). *)
type emit = { it : Proto.item; targets : int list; sub : int option }

let gen_emit =
  QCheck.Gen.(
    map
      (fun ((c, p, k), mask, sub) ->
        let targets = List.filter (fun d -> mask land (1 lsl d) <> 0) [ 0; 1; 2; 3; 4; 5 ] in
        { it = item c p k; targets; sub = (if sub < 6 then Some sub else None) })
      (triple
         (triple (int_bound 3) (int_bound 3) (int_bound 5))
         (int_range 1 63) (int_bound 11)))

let arb_flushes =
  QCheck.make
    ~print:(fun fl ->
      String.concat " | "
        (List.map
           (fun es ->
             String.concat ", "
               (List.map
                  (fun e ->
                    Printf.sprintf "%d/%s->[%s]%s"
                      (Proto.channel_tag (fst e.it))
                      (Prefix.to_string (snd e.it).Proto.prefix)
                      (String.concat ";" (List.map string_of_int e.targets))
                      (match e.sub with Some d -> Printf.sprintf " sub %d" d | None -> ""))
                  es))
           fl))
    QCheck.Gen.(list_size (int_range 1 4) (list_size (int_bound 40) gen_emit))

let enqueue_all o emits =
  (* the per-destination enqueue order, oldest first *)
  let queued = Array.make 6 [] in
  List.iter
    (fun e ->
      List.iter
        (fun dst ->
          let it =
            if e.sub = Some dst then (fst e.it, Proto.delta (snd e.it).Proto.prefix [])
            else e.it
          in
          Outbox.enqueue o dst it;
          queued.(dst) <- it :: queued.(dst))
        e.targets)
    emits;
  Array.map List.rev queued

(* Reference: [List.rev] of the newest-first list, then [List.sort] on
   channel tag and prefix; a self-send keeps its enqueue order. *)
let expected dst items =
  if dst = self then items
  else
    List.sort
      (fun ((c1, d1) : Proto.item) (c2, d2) ->
        match Int.compare (Proto.channel_tag c1) (Proto.channel_tag c2) with
        | 0 -> Prefix.compare d1.Proto.prefix d2.Proto.prefix
        | c -> c)
      items

let prop_matches_reference =
  QCheck.Test.make ~name:"outbox per-destination output = rev + sort" ~count:300
    arb_flushes (fun flushes ->
      let sent = ref [] in
      let o = outbox sent in
      List.for_all
        (fun emits ->
          sent := [];
          let queued = enqueue_all o emits in
          Outbox.flush o;
          let got = List.rev !sent in
          let want =
            List.filter_map
              (fun dst -> if queued.(dst) = [] then None else Some (dst, expected dst queued.(dst)))
              [ 0; 1; 2; 3; 4; 5 ]
          in
          let same = List.equal ( == ) in
          List.equal (fun (d, l) (e, m) -> d = e && same l m) got want
          &&
          (* consecutive non-self destinations share a list exactly when
             their items are the same, element by element *)
          let rec shared = function
            | (d, l) :: ((e, m) :: _ as rest) ->
              (d = self || e = self || List.compare_length_with l 1 <= 0
              || (l == m) = same l m)
              && shared rest
            | _ -> true
          in
          shared got)
        flushes)

(* A warm flush of [k] destinations that got the same [n] items builds
   one list of [n] cells, handed to all of them. *)
let test_fanout_builds_one_list () =
  let sent = ref [] in
  let o = outbox sent in
  let n = 24 and k = 5 in
  (* enqueued out of order, so the items are sorted *)
  let items = Array.init n (fun i -> item (i mod 2) (i mod 4) (i / 4)) in
  let dsts = [| 0; 1; 3; 4; 5 |] in
  let fill () =
    for i = n - 1 downto 0 do
      for j = 0 to k - 1 do
        Outbox.enqueue o dsts.(j) items.(i)
      done
    done
  in
  fill ();
  Outbox.flush o;
  fill ();
  sent := [];
  (* besides the one list, [transmit] here conses a pair and a cell
     (6 words) per destination *)
  let before = Gc.minor_words () in
  Outbox.flush o;
  let words = Gc.minor_words () -. before in
  check_int "every destination sent" k (List.length !sent);
  (match !sent with
  | (_, l) :: rest ->
    check_int "all items" n (List.length l);
    check_bool "one list for all" true (List.for_all (fun (_, m) -> m == l) rest)
  | [] -> ());
  let one_list = float_of_int (3 * n) and transmits = float_of_int (k * 6) in
  if words > one_list +. transmits then
    Alcotest.failf "flush allocated %.0f words, one list is %.0f" words one_list

(* Items sent through a flush, watched through a weak array: the buffer
   and its sort arrays must not keep them alive once the flush is over. *)
let flush_fresh_items watch =
  let o = outbox (ref []) in
  let items = List.init 8 (fun i -> item (i mod 2) (3 - (i mod 4)) (100 + i)) in
  List.iteri (fun i it -> Weak.set watch i (Some it)) items;
  List.iter (fun it -> Outbox.enqueue o 0 it; Outbox.enqueue o 1 it) items;
  Outbox.flush o

let test_flush_keeps_no_item () =
  let watch = Weak.create 8 in
  flush_fresh_items watch;
  Gc.full_major ();
  for i = 0 to 7 do
    if Weak.check watch i then Alcotest.failf "sent item %d outlived the flush" i
  done

let suite =
  ( "outbox",
    [
      QCheck_alcotest.to_alcotest prop_matches_reference;
      Alcotest.test_case "fan-out: a warm flush builds one list" `Quick
        test_fanout_builds_one_list;
      Alcotest.test_case "flush keeps no sent item alive" `Quick test_flush_keeps_no_item;
    ] )
