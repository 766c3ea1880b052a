let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let diamond () =
  (* 0 -1- 1 -1- 3 ; 0 -5- 2 -1- 3 *)
  let g = Igp.Graph.create ~n:4 in
  Igp.Graph.add_edge g 0 1 1;
  Igp.Graph.add_edge g 1 3 1;
  Igp.Graph.add_edge g 0 2 5;
  Igp.Graph.add_edge g 2 3 1;
  g

let test_graph_basics () =
  let g = diamond () in
  check_int "nodes" 4 (Igp.Graph.node_count g);
  check_int "arcs" 8 (Igp.Graph.edge_count g);
  check_int "degree" 2 (Igp.Graph.degree g 0);
  check_bool "metric" true (Igp.Graph.metric g 0 1 = Some 1);
  check_bool "no metric" true (Igp.Graph.metric g 0 3 = None);
  (* re-adding keeps the smaller metric *)
  Igp.Graph.add_edge g 0 1 10;
  check_bool "keeps min" true (Igp.Graph.metric g 0 1 = Some 1);
  Igp.Graph.add_edge g 0 1 0;
  check_bool "lowers" true (Igp.Graph.metric g 0 1 = Some 0)

let test_spf_distances () =
  let dist = Igp.Spf.distances (diamond ()) ~src:0 in
  check_int "self" 0 dist.(0);
  check_int "d1" 1 dist.(1);
  check_int "d3 via 1" 2 dist.(3);
  check_int "d2 direct" 3 dist.(2)
  (* 0-1-3-2 = 1+1+1 = 3 < direct 5 *)

let test_spf_path () =
  match Igp.Spf.path (diamond ()) ~src:0 ~dst:3 with
  | Some [ 0; 1; 3 ] -> ()
  | Some p ->
    Alcotest.failf "wrong path: %s" (String.concat "," (List.map string_of_int p))
  | None -> Alcotest.fail "no path"

let test_unreachable () =
  let g = Igp.Graph.create ~n:3 in
  Igp.Graph.add_edge g 0 1 1;
  let dist = Igp.Spf.distances g ~src:0 in
  check_bool "unreachable" true (dist.(2) = Igp.Spf.unreachable);
  check_bool "not connected" false (Igp.Spf.connected g);
  check_bool "path none" true (Igp.Spf.path g ~src:0 ~dst:2 = None)

let test_all_pairs_symmetric () =
  let m = Igp.Spf.all_pairs (diamond ()) in
  for i = 0 to 3 do
    for j = 0 to 3 do
      check_int (Printf.sprintf "sym %d %d" i j) m.(i).(j) m.(j).(i)
    done
  done

let test_remove_edge () =
  let g = diamond () in
  Igp.Graph.remove_edge g 0 1;
  let dist = Igp.Spf.distances g ~src:0 in
  check_int "reroutes" 5 dist.(2);
  check_int "d3" 6 dist.(3)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"all-pairs satisfies triangle inequality" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 5 30)
        (triple (int_bound 9) (int_bound 9) (int_range 1 100)))
    (fun edges ->
      let g = Igp.Graph.create ~n:10 in
      List.iter (fun (u, v, m) -> if u <> v then Igp.Graph.add_edge g u v m) edges;
      let d = Igp.Spf.all_pairs g in
      let ok = ref true in
      for i = 0 to 9 do
        for j = 0 to 9 do
          for k = 0 to 9 do
            if
              d.(i).(k) <> Igp.Spf.unreachable
              && d.(k).(j) <> Igp.Spf.unreachable
              && d.(i).(j) <> Igp.Spf.unreachable
            then if d.(i).(j) > d.(i).(k) + d.(k).(j) then ok := false
          done
        done
      done;
      !ok)

(* Random graphs for the SPF oracles: directed arcs and undirected
   edges, zero metrics, repeated arcs (the graph keeps the smallest
   metric) and isolated nodes that stay unreachable. *)
let arc n = QCheck.Gen.(quad (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 6) bool)

let show_graph (n, arcs) =
  Printf.sprintf "n=%d %s" n
    (String.concat " "
       (List.map (fun (u, v, m, e) -> Printf.sprintf "%d%s%d:%d" u (if e then "-" else ">") v m) arcs))

let graph_gen ~nodes ~arcs =
  QCheck.Gen.(int_range 1 nodes >>= fun n -> map (fun l -> (n, l)) (list_size (int_bound arcs) (arc n)))

let random_graph = QCheck.make ~print:show_graph (graph_gen ~nodes:14 ~arcs:40)

(* Up to 40 nodes, plus one arc [u -> v] to lower to metric 0 and one
   edge to remove after the first table was taken. *)
let edited_graph =
  let open QCheck in
  let gen =
    Gen.(
      graph_gen ~nodes:40 ~arcs:120 >>= fun (n, arcs) ->
      let node = int_bound (n - 1) in
      map (fun (a, b) -> ((n, arcs), a, b)) (pair (pair node node) (pair node node)))
  in
  make
    ~print:(fun (spec, (u, v), (x, y)) ->
      Printf.sprintf "%s; lower %d>%d; remove %d-%d" (show_graph spec) u v x y)
    gen

let build (n, arcs) =
  let g = Igp.Graph.create ~n in
  List.iter
    (fun (u, v, m, undirected) ->
      if undirected then Igp.Graph.add_edge g u v m else Igp.Graph.add_arc g u v m)
    arcs;
  g

(* Bellman-Ford over [Graph.neighbors]: shares no code with Spf. *)
let reference_distances g ~src =
  let n = Igp.Graph.node_count g in
  let dist = Array.make n Igp.Spf.unreachable in
  dist.(src) <- 0;
  for _ = 1 to n do
    for u = 0 to n - 1 do
      if dist.(u) <> Igp.Spf.unreachable then
        List.iter
          (fun (v, m) -> if dist.(u) + m < dist.(v) then dist.(v) <- dist.(u) + m)
          (Igp.Graph.neighbors g u)
    done
  done;
  dist

(* The heap-of-tuples Dijkstra Spf used to run: relax [Graph.neighbors]
   in list order, pop equal distances FIFO (Pqueue.Heap is stable). Its
   parents are the tie-breaking [Spf.path] must keep. *)
let reference_run g ~src =
  let n = Igp.Graph.node_count g in
  let dist = Array.make n Igp.Spf.unreachable in
  let parent = Array.make n (-1) in
  let heap = Pqueue.Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) () in
  dist.(src) <- 0;
  Pqueue.Heap.push heap (0, src);
  let rec loop () =
    match Pqueue.Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if d = dist.(u) then
        List.iter
          (fun (v, m) ->
            if d + m < dist.(v) then begin
              dist.(v) <- d + m;
              parent.(v) <- u;
              Pqueue.Heap.push heap (d + m, v)
            end)
          (Igp.Graph.neighbors g u);
      loop ()
  in
  loop ();
  (dist, parent)

let prop_all_pairs_reference =
  QCheck.Test.make ~name:"all_pairs = per-source reference distances" ~count:300
    random_graph (fun spec ->
      let g = build spec in
      let m = Igp.Spf.all_pairs g in
      Array.length m = fst spec
      && Array.for_all Fun.id
           (Array.mapi (fun src row -> row = reference_distances g ~src) m))

let prop_run_parents =
  QCheck.Test.make ~name:"run keeps the FIFO parent tie-breaking" ~count:300
    random_graph (fun spec ->
      let g = build spec in
      List.for_all
        (fun src -> Igp.Spf.run g ~src = reference_run g ~src)
        (List.init (fst spec) Fun.id))

(* The destination-major table [t] holds the row-major distances [m]. *)
let holds t m =
  let ok = ref true in
  Array.iteri
    (fun src row ->
      Array.iteri (fun dst d -> if Igp.Spf.cost t ~src ~dst <> d then ok := false) row)
    m;
  !ok

(* The table is the transpose of [all_pairs], one per generation: a
   second call returns the same table, an edit that moves the generation
   yields a fresh one, and a table taken earlier keeps the distances of
   its generation. *)
let prop_table_transpose =
  QCheck.Test.make ~name:"table = transpose of all_pairs, one per generation" ~count:150
    edited_graph (fun (spec, (u, v), (x, y)) ->
      let g = build spec in
      let step edit =
        let t = Igp.Spf.table g and m = Igp.Spf.all_pairs g in
        let gen = Igp.Graph.generation g in
        edit ();
        let t' = Igp.Spf.table g in
        holds t' (Igp.Spf.all_pairs g)
        && (if Igp.Graph.generation g = gen then t' == t else t' != t)
        && t' == Igp.Spf.table g
        && holds t m
      in
      step (fun () -> Igp.Graph.add_arc g u v 0)
      && step (fun () -> Igp.Graph.remove_edge g x y))

(* A network reads the table it took at [create] or [refresh_igp];
   [refresh_igp] and [load] after an IGP edit read the new distances. *)
let prop_network_reads_generation =
  let module C = Abrr_core.Config in
  let module N = Abrr_core.Network in
  QCheck.Test.make ~name:"refresh_igp and load read an edited graph" ~count:60
    edited_graph (fun (spec, (u, v), (x, y)) ->
      let g = build spec in
      let n = fst spec in
      let cfg = C.make ~n_routers:n ~igp:g ~scheme:C.Full_mesh () in
      let reads net m =
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if N.igp_distance net i j <> m.(i).(j) then ok := false
          done
        done;
        !ok
      in
      let step edit =
        let m0 = Igp.Spf.all_pairs g in
        let stale = N.create cfg and refreshed = N.create cfg and loaded = N.create cfg in
        let snap = Result.get_ok (Snapshot.encode loaded) in
        edit ();
        let m1 = Igp.Spf.all_pairs g in
        N.refresh_igp refreshed;
        Snapshot.decode loaded snap = Ok ()
        && reads stale m0 && reads refreshed m1 && reads loaded m1 && reads (N.create cfg) m1
      in
      step (fun () -> Igp.Graph.add_arc g u v 0)
      && step (fun () -> Igp.Graph.remove_edge g x y))

let test_generation () =
  let g = Igp.Graph.create ~n:3 in
  let gen0 = Igp.Graph.generation g in
  Igp.Graph.add_edge g 0 1 5;
  check_int "two arcs added" (gen0 + 2) (Igp.Graph.generation g);
  Igp.Graph.add_edge g 0 1 7;
  check_int "higher metric: no change" (gen0 + 2) (Igp.Graph.generation g);
  Igp.Graph.add_arc g 0 1 3;
  check_int "lowered metric" (gen0 + 3) (Igp.Graph.generation g);
  Igp.Graph.remove_edge g 1 2;
  check_int "absent edge: no change" (gen0 + 3) (Igp.Graph.generation g);
  Igp.Graph.remove_edge g 0 1;
  check_int "two arcs removed" (gen0 + 5) (Igp.Graph.generation g)

let test_oversized_metrics_rejected () =
  let g = Igp.Graph.create ~n:3 in
  Igp.Graph.add_edge g 0 1 (max_int / 4);
  match Igp.Spf.all_pairs g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "distances that cannot be ranked were accepted"

let suite =
  ( "igp",
    [
      Alcotest.test_case "graph basics" `Quick test_graph_basics;
      Alcotest.test_case "spf distances" `Quick test_spf_distances;
      Alcotest.test_case "spf path" `Quick test_spf_path;
      Alcotest.test_case "unreachable" `Quick test_unreachable;
      Alcotest.test_case "all pairs symmetric" `Quick test_all_pairs_symmetric;
      Alcotest.test_case "remove edge reroutes" `Quick test_remove_edge;
      QCheck_alcotest.to_alcotest prop_triangle_inequality;
      QCheck_alcotest.to_alcotest prop_all_pairs_reference;
      QCheck_alcotest.to_alcotest prop_run_parents;
      QCheck_alcotest.to_alcotest prop_table_transpose;
      QCheck_alcotest.to_alcotest prop_network_reads_generation;
      Alcotest.test_case "generation counts edits" `Quick test_generation;
      Alcotest.test_case "oversized metrics rejected" `Quick
        test_oversized_metrics_rejected;
    ] )
