let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_basic () =
  let h = Pqueue.Heap.create ~cmp:Int.compare () in
  check_bool "empty" true (Pqueue.Heap.is_empty h);
  List.iter (Pqueue.Heap.push h) [ 5; 1; 4; 1; 3 ];
  check_int "length" 5 (Pqueue.Heap.length h);
  check_bool "peek" true (Pqueue.Heap.peek h = Some 1);
  check_bool "sorted drain" true
    (Pqueue.Heap.to_sorted_list h = [ 1; 1; 3; 4; 5 ]);
  check_bool "drained" true (Pqueue.Heap.is_empty h)

let test_pop_empty () =
  let h = Pqueue.Heap.create ~cmp:Int.compare () in
  check_bool "pop none" true (Pqueue.Heap.pop h = None);
  check_bool "pop_exn raises" true
    (try
       ignore (Pqueue.Heap.pop_exn h);
       false
     with Invalid_argument _ -> true)

let test_clear () =
  let h = Pqueue.Heap.of_list ~cmp:Int.compare [ 3; 1; 2 ] in
  Pqueue.Heap.clear h;
  check_bool "cleared" true (Pqueue.Heap.is_empty h);
  Pqueue.Heap.push h 9;
  check_bool "usable after clear" true (Pqueue.Heap.pop h = Some 9)

let test_capacity_hint () =
  (* the hint must size the first allocation, before and after pushes *)
  let h = Pqueue.Heap.create ~capacity:100 ~cmp:Int.compare () in
  check_int "hint honored before any push" 100 (Pqueue.Heap.capacity h);
  Pqueue.Heap.push h 1;
  check_int "first allocation uses the hint" 100 (Pqueue.Heap.capacity h);
  for i = 2 to 100 do
    Pqueue.Heap.push h i
  done;
  check_int "no growth within the hint" 100 (Pqueue.Heap.capacity h);
  Pqueue.Heap.push h 101;
  check_bool "doubles past the hint" true (Pqueue.Heap.capacity h > 100);
  check_int "all stored" 101 (Pqueue.Heap.length h);
  (* degenerate hints are clamped, not fatal *)
  let z = Pqueue.Heap.create ~capacity:0 ~cmp:Int.compare () in
  Pqueue.Heap.push z 5;
  check_bool "zero hint still usable" true (Pqueue.Heap.pop z = Some 5)

(* --- FIFO tie-breaking: elements equal under cmp pop in push order --- *)

let by_key (a, _) (b, _) = Int.compare a b

let test_fifo_same_key () =
  let h = Pqueue.Heap.create ~cmp:by_key () in
  List.iter (Pqueue.Heap.push h) [ (1, "a"); (1, "b"); (2, "c"); (1, "d") ];
  check_bool "ties drain in insertion order" true
    (Pqueue.Heap.to_sorted_list h = [ (1, "a"); (1, "b"); (1, "d"); (2, "c") ]);
  (* a pop between tied pushes must not reorder the survivors *)
  List.iter (Pqueue.Heap.push h) [ (5, "x"); (5, "y") ];
  check_bool "pop head of tie" true (Pqueue.Heap.pop h = Some (5, "x"));
  Pqueue.Heap.push h (5, "z");
  check_bool "tie order survives interleaved pop" true
    (Pqueue.Heap.to_sorted_list h = [ (5, "y"); (5, "z") ])

let test_fifo_across_growth () =
  (* start tiny so the backing array doubles several times mid-sequence;
     growth must not perturb the FIFO order of equal keys *)
  let h = Pqueue.Heap.create ~capacity:2 ~cmp:by_key () in
  for i = 0 to 99 do
    Pqueue.Heap.push h (i mod 3, i)
  done;
  check_bool "grew past the hint" true (Pqueue.Heap.capacity h >= 100);
  let drained = Pqueue.Heap.to_sorted_list h in
  let expected =
    List.stable_sort by_key (List.init 100 (fun i -> (i mod 3, i)))
  in
  check_bool "stable across growth" true (drained = expected)

let test_fifo_capacity_interaction () =
  (* all-equal keys exactly at the capacity hint, then spill past it *)
  let h = Pqueue.Heap.create ~capacity:8 ~cmp:by_key () in
  for i = 0 to 7 do
    Pqueue.Heap.push h (0, i)
  done;
  check_int "no growth at the hint" 8 (Pqueue.Heap.capacity h);
  for i = 8 to 15 do
    Pqueue.Heap.push h (0, i)
  done;
  check_bool "spilled past the hint" true (Pqueue.Heap.capacity h > 8);
  check_bool "all-tie drain is pure FIFO" true
    (Pqueue.Heap.to_sorted_list h = List.init 16 (fun i -> (0, i)));
  (* clear resets the insertion stamp: a reused heap is still FIFO *)
  Pqueue.Heap.push h (0, 100);
  Pqueue.Heap.clear h;
  List.iter (Pqueue.Heap.push h) [ (0, 1); (0, 2) ];
  check_bool "FIFO after clear" true
    (Pqueue.Heap.to_sorted_list h = [ (0, 1); (0, 2) ])

(* The option-free accessors: [top_exn] reads without removing,
   [pop_exn] removes; both raise on an empty heap and keep FIFO ties. *)
let test_exn_accessors () =
  let h = Pqueue.Heap.create ~cmp:by_key () in
  let raises f =
    try
      ignore (f h);
      false
    with Invalid_argument _ -> true
  in
  check_bool "top_exn on empty raises" true (raises Pqueue.Heap.top_exn);
  check_bool "pop_exn on empty raises" true (raises Pqueue.Heap.pop_exn);
  List.iter (Pqueue.Heap.push h) [ (2, "a"); (1, "b"); (2, "c"); (1, "d"); (2, "e") ];
  check_bool "top_exn is the min" true (Pqueue.Heap.top_exn h = (1, "b"));
  check_int "top_exn does not remove" 5 (Pqueue.Heap.length h);
  let order = List.init 5 (fun _ -> snd (Pqueue.Heap.pop_exn h)) in
  check_bool "pop_exn keeps FIFO ties" true (order = [ "b"; "d"; "a"; "c"; "e" ]);
  check_bool "drained" true (raises Pqueue.Heap.top_exn)

let test_remove () =
  let h = Pqueue.Heap.create ~cmp:by_key () in
  List.iter (Pqueue.Heap.push h)
    [ (3, "a"); (1, "b"); (2, "c"); (1, "d"); (2, "e") ];
  check_bool "remove hit" true (Pqueue.Heap.remove h (fun (_, s) -> s = "c") = Some (2, "c"));
  check_bool "remove miss" true (Pqueue.Heap.remove h (fun (_, s) -> s = "zz") = None);
  check_int "length after remove" 4 (Pqueue.Heap.length h);
  check_bool "order intact after remove" true
    (Pqueue.Heap.to_sorted_list h = [ (1, "b"); (1, "d"); (2, "e"); (3, "a") ])

let prop_stable_sort =
  QCheck.Test.make ~name:"equal keys drain in insertion order" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.int_range 0 64) (int_range 0 4)))
    (fun (capacity, keys) ->
      let h = Pqueue.Heap.create ~capacity ~cmp:by_key () in
      let tagged = List.mapi (fun i k -> (k, i)) keys in
      List.iter (Pqueue.Heap.push h) tagged;
      Pqueue.Heap.to_sorted_list h = List.stable_sort by_key tagged)

let prop_remove_keeps_order =
  QCheck.Test.make ~name:"remove preserves heap order and stability" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 32) (int_range 0 4)) (int_range 0 31))
    (fun (keys, victim) ->
      let h = Pqueue.Heap.create ~capacity:2 ~cmp:by_key () in
      let tagged = List.mapi (fun i k -> (k, i)) keys in
      List.iter (Pqueue.Heap.push h) tagged;
      let removed = Pqueue.Heap.remove h (fun (_, i) -> i = victim) in
      let expected =
        List.stable_sort by_key (List.filter (fun (_, i) -> i <> victim) tagged)
      in
      (match removed with
      | Some (_, i) -> i = victim
      | None -> not (List.exists (fun (_, i) -> i = victim) tagged))
      && Pqueue.Heap.to_sorted_list h = expected)

let prop_grow_from_sized_start =
  QCheck.Test.make ~name:"heap grown from a sized start stays sorted" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.int_range 0 64) int))
    (fun (capacity, l) ->
      let h = Pqueue.Heap.create ~capacity ~cmp:Int.compare () in
      List.iter (Pqueue.Heap.push h) l;
      Pqueue.Heap.capacity h >= List.length l
      && Pqueue.Heap.to_sorted_list h = List.sort Int.compare l)

let prop_heap_sort =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list int)
    (fun l ->
      let h = Pqueue.Heap.of_list ~cmp:Int.compare l in
      Pqueue.Heap.to_sorted_list h = List.sort Int.compare l)

let remove_one x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: tl -> if y = x then List.rev_append acc tl else go (y :: acc) tl
  in
  go [] l

let prop_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop maintains min" ~count:200
    QCheck.(pair (int_range 1 16) (list (pair bool small_int)))
    (fun (capacity, ops) ->
      let h = Pqueue.Heap.create ~capacity ~cmp:Int.compare () in
      let model = ref [] in
      List.for_all
        (fun (is_pop, v) ->
          if is_pop then begin
            let expected =
              match !model with [] -> None | l -> Some (List.fold_left min max_int l)
            in
            let got = Pqueue.Heap.pop h in
            (match got with Some x -> model := remove_one x !model | None -> ());
            got = expected
          end
          else begin
            Pqueue.Heap.push h v;
            model := v :: !model;
            true
          end)
        ops)

let suite =
  ( "heap",
    [
      Alcotest.test_case "basic" `Quick test_basic;
      Alcotest.test_case "empty pops" `Quick test_pop_empty;
      Alcotest.test_case "top_exn/pop_exn" `Quick test_exn_accessors;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "capacity hint" `Quick test_capacity_hint;
      Alcotest.test_case "FIFO same-key order" `Quick test_fifo_same_key;
      Alcotest.test_case "FIFO across growth" `Quick test_fifo_across_growth;
      Alcotest.test_case "FIFO vs capacity hint" `Quick test_fifo_capacity_interaction;
      Alcotest.test_case "remove by predicate" `Quick test_remove;
      QCheck_alcotest.to_alcotest prop_stable_sort;
      QCheck_alcotest.to_alcotest prop_remove_keeps_order;
      QCheck_alcotest.to_alcotest prop_grow_from_sized_start;
      QCheck_alcotest.to_alcotest prop_heap_sort;
      QCheck_alcotest.to_alcotest prop_interleaved;
    ] )
