let unreachable = max_int

(* One Dijkstra workspace per graph, reused across sources.

   The adjacency is flattened once into compressed sparse rows: the arcs
   out of [u] are [dst.(k)] with metric [wt.(k)] for [k] in
   [off.(u) .. off.(u + 1) - 1], listed in {!Graph.neighbors} order.

   Heap entries are single ints, [distance lsl bits lor stamp], where
   the stamp counts pushes and [node] maps it back to the node pushed.
   Integer order on the packed key is lexicographic on (distance, stamp):
   equal distances pop in push order, and relaxation follows
   [Graph.neighbors] order, so [parent] breaks ties on equal-cost paths
   the same way on every run. [Verify.Deflection] walks those paths.
   Every push is a strict improvement, so there is at most one per arc
   plus the source: [m + 1] stamps. *)
type work = {
  off : int array;
  dst : int array;
  wt : int array;
  parent : int array;
  heap : int array;
  node : int array;  (* stamp -> node *)
  bits : int;  (* stamp width *)
  mutable size : int;
  mutable stamps : int;
}

let rec width x = if x = 0 then 0 else 1 + width (x lsr 1)

let workspace ~n off dst wt =
  let m = off.(n) in
  let bits = width m in
  (* A tentative distance is a shortest distance plus one arc: at most
     [n] arcs, each no longer than the longest. *)
  let longest = Array.fold_left max 0 wt in
  if longest > 0 && n > (max_int lsr bits) / longest then
    invalid_arg "Spf: IGP metrics too large for this graph";
  {
    off;
    dst;
    wt;
    parent = Array.make n (-1);
    heap = Array.make (m + 1) 0;
    node = Array.make (m + 1) 0;
    bits;
    size = 0;
    stamps = 0;
  }

let work g =
  let n = Graph.node_count g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Graph.degree g u
  done;
  let m = off.(n) in
  let dst = Array.make m 0 and wt = Array.make m 0 in
  for u = 0 to n - 1 do
    (* [neighbors] reverses iteration order: fill each row from its end. *)
    let k = ref off.(u + 1) in
    Graph.iter_neighbors g u (fun v metric ->
        decr k;
        dst.(!k) <- v;
        wt.(!k) <- metric)
  done;
  workspace ~n off dst wt

(* The same rows over incoming arcs: row [v] lists every arc [u -> v] as
   [u] with its metric, so a run "from" [v] yields each node's distance
   to [v]. Parents then point away from [v]; nothing reads them. *)
let work_incoming g =
  let n = Graph.node_count g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    Graph.iter_neighbors g u (fun v _ -> off.(v + 1) <- off.(v + 1) + 1)
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let m = off.(n) in
  let dst = Array.make m 0 and wt = Array.make m 0 in
  let next = Array.sub off 0 n in
  for u = 0 to n - 1 do
    Graph.iter_neighbors g u (fun v metric ->
        let k = next.(v) in
        next.(v) <- k + 1;
        dst.(k) <- u;
        wt.(k) <- metric)
  done;
  workspace ~n off dst wt

let push w d v =
  let key = (d lsl w.bits) lor w.stamps in
  w.node.(w.stamps) <- v;
  w.stamps <- w.stamps + 1;
  let h = w.heap in
  let i = ref w.size in
  w.size <- w.size + 1;
  while !i > 0 && key < h.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    h.(!i) <- h.(p);
    i := p
  done;
  h.(!i) <- key

let pop w =
  let h = w.heap in
  let top = h.(0) in
  let size = w.size - 1 in
  w.size <- size;
  let last = h.(size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < size && h.(l + 1) < h.(l) then l + 1 else l in
    if c < size && h.(c) < last then begin
      h.(!i) <- h.(c);
      i := c
    end
    else sifting := false
  done;
  h.(!i) <- last;
  top

(* Shortest distances from [src] into [dist] (all [unreachable] on
   entry), predecessors into [w.parent]. Allocates nothing. *)
let fill w ~src dist =
  Array.fill w.parent 0 (Array.length w.parent) (-1);
  w.size <- 0;
  w.stamps <- 0;
  dist.(src) <- 0;
  push w 0 src;
  let mask = (1 lsl w.bits) - 1 in
  while w.size > 0 do
    let key = pop w in
    let d = key lsr w.bits and u = w.node.(key land mask) in
    if d = dist.(u) then
      (* Not a stale heap entry: relax outgoing arcs. *)
      for k = w.off.(u) to w.off.(u + 1) - 1 do
        let v = w.dst.(k) in
        let nd = d + w.wt.(k) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          w.parent.(v) <- u;
          push w nd v
        end
      done
  done

let run g ~src =
  let n = Graph.node_count g in
  if src < 0 || src >= n then invalid_arg "Spf.run: source out of range";
  let w = work g in
  let dist = Array.make n unreachable in
  fill w ~src dist;
  (dist, w.parent)

let distances g ~src = fst (run g ~src)

let path g ~src ~dst =
  let dist, parent = run g ~src in
  if dist.(dst) = unreachable then None
  else begin
    let rec build v acc = if v = src then src :: acc else build parent.(v) (v :: acc) in
    Some (build dst [])
  end

(* One run from every row of [w]'s adjacency, each into its own array. *)
let runs w =
  let n = Array.length w.parent in
  Array.init n (fun src ->
      let dist = Array.make n unreachable in
      fill w ~src dist;
      dist)

let all_pairs g = runs (work g)

(* Destination-major: [t.(dst).(src)] is the metric of the shortest path
   [src -> dst]. A reflected set's next hops are a few columns that every
   client reads, so they stay cached across clients. *)
type table = int array array

type Graph.memo += Table of table

(* Whoever computes a generation's table first installs it; a caller that
   loses the race adopts the winner's, so one generation has one table. *)
let table g =
  let slot = Graph.memo g and gen = Graph.generation g in
  let rec install t =
    match Atomic.get slot with
    | g', Table t' when g' = gen -> t'
    | seen -> if Atomic.compare_and_set slot seen (gen, Table t) then t else install t
  in
  match Atomic.get slot with
  | g', Table t when g' = gen -> t
  | _ -> install (runs (work_incoming g))

let cost (t : table) ~src ~dst = t.(dst).(src)

let reachable_from g ~src =
  Array.map (fun d -> d <> unreachable) (distances g ~src)

let connected g =
  let n = Graph.node_count g in
  n <= 1 || Array.for_all Fun.id (reachable_from g ~src:0)
