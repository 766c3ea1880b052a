open Netaddr

(* Mutable path-compressed binary trie, specialised to route lists.
   Invariants (as in [Netaddr.Prefix_trie]):
   - each node's children are strictly more specific than its prefix and
     fall in its address range (left: next bit 0, right: next bit 1);
   - a node with [routes = []] is a pure junction and has two non-[nil]
     children (otherwise it is compressed away).
   [nil] is a physically-unique sentinel — never mutated, compared with
   [==].  A populated node costs 5 words regardless of table size, and
   the structure supports longest-prefix match directly, which is what
   lets the router drop its separate FIB. *)

type node = {
  pfx : Prefix.t;
  mutable routes : Route.t list;  (* insertion order of path ids *)
  mutable l : node;
  mutable r : node;
}

let rec nil = { pfx = Prefix.default; routes = []; l = nil; r = nil }

type t = {
  mutable root : node;
  mutable entries : int;
  mutable changed : bool;  (* scratch: result cell for upsert/drop *)
}

let create () = { root = nil; entries = 0; changed = false }
let newnode pfx routes = { pfx; routes; l = nil; r = nil }

(* Direction of [q] below [pfx]: false = left (bit 0), true = right. *)
let dir pfx q = Prefix.bit q (Prefix.len pfx)

(* Longest common prefix of two prefixes. *)
let common_prefix p q =
  let x = Ipv4.to_int (Prefix.addr p) lxor Ipv4.to_int (Prefix.addr q) in
  let rec first_diff i =
    if i >= 32 then 32
    else if (x lsr (31 - i)) land 1 = 1 then i
    else first_diff (i + 1)
  in
  let l = min (min (Prefix.len p) (Prefix.len q)) (first_diff 0) in
  Prefix.make (Prefix.addr p) l

(* Join two nodes with disjoint prefixes under a fresh junction. *)
let join p np q nq =
  let j = newnode (common_prefix p q) [] in
  if dir j.pfx p then (
    j.l <- nq;
    j.r <- np)
  else (
    j.l <- np;
    j.r <- nq);
  j

(* A junction that lost a child is spliced out. Only called on nodes
   with [routes = []]. *)
let compress n = if n.l == nil then n.r else if n.r == nil then n.l else n

let rec find_node n pfx =
  if n == nil then nil
  else if Prefix.equal pfx n.pfx then n
  else if Prefix.subsumes n.pfx pfx && Prefix.len n.pfx < 32 then
    find_node (if dir n.pfx pfx then n.r else n.l) pfx
  else nil

let get t prefix = (find_node t.root prefix).routes

(* Splice a fresh node for [pfx] into a tree rooted at [n] when [pfx]
   is not on [n]'s spine: either above [n] or joined beside it. *)
let splice nn n =
  if Prefix.subsumes nn.pfx n.pfx then (
    if dir nn.pfx n.pfx then nn.r <- n else nn.l <- n;
    nn)
  else join nn.pfx nn n.pfx n

let rec set_node t n pfx routes =
  if n == nil then
    match routes with
    | [] -> nil
    | _ ->
      t.entries <- t.entries + List.length routes;
      newnode pfx routes
  else if Prefix.equal pfx n.pfx then (
    t.entries <- t.entries - List.length n.routes + List.length routes;
    n.routes <- routes;
    if routes = [] then compress n else n)
  else if Prefix.subsumes n.pfx pfx && Prefix.len n.pfx < 32 then (
    if dir n.pfx pfx then n.r <- set_node t n.r pfx routes
    else n.l <- set_node t n.l pfx routes;
    if n.routes = [] then compress n else n)
  else if routes = [] then n
  else (
    t.entries <- t.entries + List.length routes;
    splice (newnode pfx routes) n)

let set t prefix routes = t.root <- set_node t t.root prefix routes

(* Single pass: replace the entry with [route]'s path id in place
   (preserving position), or append when absent. [`Unchanged] when the
   stored route is already equal. Lists are short (add-paths fan-in per
   prefix), so the non-tail recursion is fine. *)
let rec upsert_list (route : Route.t) = function
  | [] -> `Added [ route ]
  | (r : Route.t) :: tl ->
    if r.Route.path_id = route.Route.path_id then
      if Route.equal r route then `Unchanged else `Replaced (route :: tl)
    else (
      match upsert_list route tl with
      | `Unchanged -> `Unchanged
      | `Added tl' -> `Added (r :: tl')
      | `Replaced tl' -> `Replaced (r :: tl'))

let rec upsert_node t n (route : Route.t) =
  let pfx = route.Route.prefix in
  if n == nil then (
    t.changed <- true;
    t.entries <- t.entries + 1;
    newnode pfx [ route ])
  else if Prefix.equal pfx n.pfx then (
    (match upsert_list route n.routes with
    | `Unchanged -> t.changed <- false
    | `Replaced rs ->
      t.changed <- true;
      n.routes <- rs
    | `Added rs ->
      t.changed <- true;
      t.entries <- t.entries + 1;
      n.routes <- rs);
    n)
  else if Prefix.subsumes n.pfx pfx && Prefix.len n.pfx < 32 then (
    if dir n.pfx pfx then n.r <- upsert_node t n.r route
    else n.l <- upsert_node t n.l route;
    n)
  else (
    t.changed <- true;
    t.entries <- t.entries + 1;
    splice (newnode pfx [ route ]) n)

let upsert t route =
  t.root <- upsert_node t t.root route;
  t.changed

(* Single pass: [None] when no route carries [path_id], otherwise the
   list without the (unique per prefix) matching route. *)
let rec remove_path path_id = function
  | [] -> None
  | (r : Route.t) :: tl ->
    if r.Route.path_id = path_id then Some tl
    else Option.map (fun tl' -> r :: tl') (remove_path path_id tl)

let rec drop_node t n pfx path_id =
  if n == nil then nil
  else if Prefix.equal pfx n.pfx then (
    match remove_path path_id n.routes with
    | None -> n
    | Some rest ->
      t.changed <- true;
      t.entries <- t.entries - 1;
      n.routes <- rest;
      if rest = [] then compress n else n)
  else if Prefix.subsumes n.pfx pfx && Prefix.len n.pfx < 32 then (
    if dir n.pfx pfx then n.r <- drop_node t n.r pfx path_id
    else n.l <- drop_node t n.l pfx path_id;
    if n.routes = [] then compress n else n)
  else n

let drop t prefix ~path_id =
  t.changed <- false;
  t.root <- drop_node t t.root prefix path_id;
  t.changed

let clear t =
  t.root <- nil;
  t.entries <- 0

let entry_count t = t.entries

let rec fold_node f n acc =
  if n == nil then acc
  else
    let acc = if n.routes = [] then acc else f n.pfx n.routes acc in
    fold_node f n.r (fold_node f n.l acc)

let fold f t acc = fold_node f t.root acc
let iter f t = fold (fun p rs () -> f p rs) t ()

let rec lm_node n a best =
  if n == nil then best
  else if not (Prefix.mem a n.pfx) then best
  else
    let best = if n.routes = [] then best else Some (n.pfx, n.routes) in
    if Prefix.len n.pfx >= 32 then best
    else lm_node (if Ipv4.bit a (Prefix.len n.pfx) then n.r else n.l) a best

let longest_match t addr = lm_node t.root addr None
