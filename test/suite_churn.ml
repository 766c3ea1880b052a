(* The domain's dirty set behind the router's batched decision pass
   (Churn.batch, Router.run_batch). *)

open Netaddr
module Churn = Abrr_core.Churn

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p1 = Prefix.of_string "20.0.0.0/16"
let p2 = Prefix.of_string "21.0.0.0/16"
let mk prefix id = Bgp.Route.make ~path_id:id ~prefix ~next_hop:(Ipv4.of_int (1000 + id)) ()
let ids (c : Churn.t) = List.map (fun (r : Bgp.Route.t) -> r.Bgp.Route.path_id) c.Churn.routes

(* What a drain hands over, copied out of the pooled records. *)
let drained b =
  let out = ref [] in
  Churn.drain b () (fun () p (c : Churn.t) ->
      out := (p, c.Churn.full, c.Churn.planes, ids c) :: !out);
  List.rev !out

let test_mark_coalesces () =
  let b = Churn.batch () in
  check_bool "fresh set is empty" true (Churn.is_empty b);
  Churn.mark_delta b p1 Churn.plane_loc [ mk p1 1 ];
  (* re-marking the same prefix accumulates into its record, not a
     fresh one: same-prefix churn within a batch coalesces *)
  Churn.mark_delta b p1 Churn.plane_arr [ mk p1 2 ];
  Churn.mark_noop b p2;
  check_bool "marked" false (Churn.is_empty b);
  match drained b with
  | [ (a, false, planes, [ 2; 1 ]); (c, false, 0, []) ] ->
    check_bool "one record per prefix" true (Prefix.equal a p1 && Prefix.equal c p2);
    check_int "planes merged" (Churn.plane_loc lor Churn.plane_arr) planes
  | l -> Alcotest.failf "drained %d records, not the two marked" (List.length l)

let test_drain_sorts_and_clears () =
  let b = Churn.batch () in
  Churn.mark_full b p2;
  Churn.mark_noop b p1;
  (* ascending prefix order regardless of mark order *)
  check_bool "sorted by prefix" true
    (match drained b with
    | [ (a, false, _, _); (c, true, _, _) ] -> Prefix.equal a p1 && Prefix.equal c p2
    | _ -> false);
  (* the set is cleared after the batch: drain leaves it empty and a
     second drain yields nothing *)
  check_bool "cleared after drain" true (Churn.is_empty b);
  check_int "second drain empty" 0 (List.length (drained b));
  Churn.mark_noop b p2;
  check_bool "reusable after drain, record reset" true
    (match drained b with [ (c, false, 0, []) ] -> Prefix.equal c p2 | _ -> false)

(* Reference: the hash table and whole sort the set replaced, with the
   marking rules of [Churn.mark_full], [mark_noop] and [mark_delta]. *)
type op = Full of int | Noop of int | Delta of int * int * int list

let pool =
  Array.init 120 (fun i ->
      (* equal addresses at several lengths, and keys far apart *)
      let addr = Ipv4.of_int (((i / 3) * 0x0101_0100) land 0xFFFF_FF00) in
      Prefix.make addr (16 + (i mod 3 * 4)))

let reference batch =
  let t = Hashtbl.create 16 in
  let get p =
    match Hashtbl.find_opt t (Prefix.to_key p) with
    | Some r -> r
    | None ->
      let r = (p, ref false, ref 0, ref []) in
      Hashtbl.add t (Prefix.to_key p) r;
      r
  in
  List.iter
    (function
      | Full i ->
        let _, full, _, _ = get pool.(i) in
        full := true
      | Noop i -> ignore (get pool.(i))
      | Delta (i, planes, rs) ->
        let _, _, pl, routes = get pool.(i) in
        pl := !pl lor planes;
        routes := (match !routes with [] -> rs | old -> List.rev_append rs old))
    batch;
  Hashtbl.fold (fun _ (p, f, pl, rs) acc -> (p, !f, !pl, !rs) :: acc) t []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Prefix.compare a b)

let apply b = function
  | Full i -> Churn.mark_full b pool.(i)
  | Noop i -> Churn.mark_noop b pool.(i)
  | Delta (i, planes, rs) ->
    Churn.mark_delta b pool.(i) planes (List.map (mk pool.(i)) rs)

let gen_op =
  QCheck.Gen.(
    int_bound (Array.length pool - 1) >>= fun i ->
    frequency
      [
        (1, return (Full i));
        (2, return (Noop i));
        ( 4,
          map2
            (fun planes rs -> Delta (i, planes, rs))
            (int_bound 15) (list_size (int_bound 3) (int_range 1 9)) );
      ])

let show_op = function
  | Full i -> Printf.sprintf "full %d" i
  | Noop i -> Printf.sprintf "noop %d" i
  | Delta (i, pl, rs) ->
    Printf.sprintf "delta %d %d [%s]" i pl (String.concat ";" (List.map string_of_int rs))

let arb_batches =
  QCheck.make
    ~print:(fun bs ->
      String.concat " | " (List.map (fun b -> String.concat ", " (List.map show_op b)) bs))
    QCheck.Gen.(list_size (int_range 3 6) (list_size (int_bound 200) gen_op))

(* Several batches through the one reused set: each drains exactly what
   the reference computes, so no pooled record carries state from an
   earlier batch. Batches of up to 200 marks over 120 prefixes also
   grow the set past its first arrays. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"dirty set = Hashtbl + sort over reused batches" ~count:200
    arb_batches (fun batches ->
      let b = Churn.batch () in
      List.for_all
        (fun batch ->
          List.iter (apply b) batch;
          List.equal
            (fun (p, f, pl, rs) (q, g, ql, ss) ->
              Prefix.equal p q && f = g && pl = ql && rs = ss)
            (reference batch) (drained b)
          && Churn.is_empty b)
        batches)

exception Stop

let test_exception_empties () =
  let b = Churn.batch () in
  Array.iteri (fun i p -> if i < 50 then Churn.mark_delta b p Churn.plane_loc [ mk p i ]) pool;
  let seen = ref 0 in
  (match
     Churn.drain b () (fun () _ _ ->
         incr seen;
         if !seen = 2 then raise Stop)
   with
  | () -> Alcotest.fail "the drain did not raise"
  | exception Stop -> ());
  check_bool "empty after a raising drain" true (Churn.is_empty b);
  Churn.mark_noop b pool.(7);
  check_bool "next batch sees only its own marks, reset" true
    (match drained b with [ (p, false, 0, []) ] -> Prefix.equal p pool.(7) | _ -> false);
  (* a batch aborted while marking is dropped by the next [batch ()] *)
  Churn.mark_full b p1;
  let b = Churn.batch () in
  check_bool "aborted batch dropped" true (Churn.is_empty b && drained b = [])

(* A top-level drain callback, so draining builds no closure. *)
let drained_count = ref 0
let count () _ (_ : Churn.t) = incr drained_count

let test_warm_allocates_nothing () =
  let b = Churn.batch () in
  let routes = Array.map (fun p -> [ mk p 1 ]) pool in
  let batch () =
    for i = 0 to Array.length pool - 1 do
      if i mod 3 = 0 then Churn.mark_full b pool.(i)
      else Churn.mark_delta b pool.(i) Churn.plane_loc routes.(i);
      (* a re-mark finds the record already there *)
      Churn.mark_noop b pool.(i)
    done
  in
  batch ();
  Churn.drain b () count;
  drained_count := 0;
  let before = Gc.minor_words () in
  batch ();
  Churn.drain b () count;
  let words = Gc.minor_words () -. before in
  check_int "every prefix drained" (Array.length pool) !drained_count;
  if words > 0. then Alcotest.failf "a warm mark and drain allocated %.0f words" words

let suite =
  ( "churn",
    [
      Alcotest.test_case "dirty set: re-marking coalesces" `Quick test_mark_coalesces;
      Alcotest.test_case "dirty set: drain sorts, clears" `Quick
        test_drain_sorts_and_clears;
      QCheck_alcotest.to_alcotest prop_matches_reference;
      Alcotest.test_case "dirty set: a raising drain leaves it empty" `Quick
        test_exception_empties;
      Alcotest.test_case "dirty set: warm mark and drain allocate nothing" `Quick
        test_warm_allocates_nothing;
    ] )
