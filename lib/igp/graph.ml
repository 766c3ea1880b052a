type memo = ..
type memo += Nothing

type t = {
  adj : (int, int) Hashtbl.t array;
  mutable arcs : int;
  mutable generation : int;
  memo : (int * memo) Atomic.t;
}
(* adj.(u) maps neighbour v to the arc metric. *)

let create ~n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    arcs = 0;
    generation = 0;
    memo = Atomic.make (-1, Nothing);
  }

let node_count g = Array.length g.adj
let edge_count g = g.arcs
let generation g = g.generation
let memo g = g.memo

let check g u =
  if u < 0 || u >= node_count g then
    invalid_arg (Printf.sprintf "Graph: node %d out of range" u)

let add_arc g u v metric =
  check g u;
  check g v;
  if metric < 0 then invalid_arg "Graph.add_arc: negative metric";
  match Hashtbl.find_opt g.adj.(u) v with
  | None ->
    Hashtbl.replace g.adj.(u) v metric;
    g.arcs <- g.arcs + 1;
    g.generation <- g.generation + 1
  | Some m ->
    if metric < m then begin
      Hashtbl.replace g.adj.(u) v metric;
      g.generation <- g.generation + 1
    end

let add_edge g u v metric =
  add_arc g u v metric;
  add_arc g v u metric

let iter_neighbors g u f =
  check g u;
  Hashtbl.iter f g.adj.(u)

(* Prepending reverses the iteration order: [neighbors] lists arcs in the
   reverse of [iter_neighbors] order, which Spf's adjacency arrays
   reproduce. *)
let neighbors g u =
  let acc = ref [] in
  iter_neighbors g u (fun v m -> acc := (v, m) :: !acc);
  !acc

let metric g u v =
  check g u;
  check g v;
  Hashtbl.find_opt g.adj.(u) v

let remove_arc g u v =
  if Hashtbl.mem g.adj.(u) v then begin
    Hashtbl.remove g.adj.(u) v;
    g.arcs <- g.arcs - 1;
    g.generation <- g.generation + 1
  end

let remove_edge g u v =
  check g u;
  check g v;
  remove_arc g u v;
  remove_arc g v u

let degree g u =
  check g u;
  Hashtbl.length g.adj.(u)
