open Netaddr
module R = Bgp.Route

(* A path-compressed binary trie over [Prefix.to_key] ints, shaped like
   [Bgp.Rib]'s: children are strictly more specific than their node and
   fall in its address range (left: next bit 0, right: next bit 1), and a
   node with no slot is a pure junction with two non-[nil] children
   (otherwise it is compressed away). A node's slots hold its sources
   in ascending order, each with a non-empty route set. The two arrays
   are exactly as long as the node has sources: a store that adds or
   removes a source replaces them instead of editing them, and a
   junction has none. Descents compare the unboxed keys only; a
   [Prefix.t] is rebuilt with [Prefix.of_key] where a fold hands one
   out. *)

type node = {
  key : int;
  mutable srcs : int array;  (* ascending *)
  mutable sets : R.t list array;  (* parallel to [srcs] *)
  mutable l : node;
  mutable r : node;
}

let rec nil = { key = 0; srcs = [||]; sets = [||]; l = nil; r = nil }

type t = {
  mutable root : node;
  mutable entries : int;
  mutable prev : R.t list;  (* [exchange]'s result cell *)
}

let create () = { root = nil; entries = 0; prev = [] }
let width n = Array.length n.srcs
let src n i = n.srcs.(i)
let routes n i = n.sets.(i)

let rec find n k =
  if n == nil || n.key = k then n
  else if Prefix.key_subsumes n.key k then
    find (if Prefix.key_bit k (Prefix.key_len n.key) then n.r else n.l) k
  else nil

let node t p = find t.root (Prefix.to_key p)

(* The slot of [src] in [n], or where it would be inserted. *)
let rec slot n src i = if i < width n && n.srcs.(i) < src then slot n src (i + 1) else i
let holds n src i = i < width n && n.srcs.(i) = src

let get t p src =
  let n = node t p in
  let i = slot n src 0 in
  if holds n src i then n.sets.(i) else []

let leaf k src routes =
  { key = k; srcs = [| src |]; sets = [| routes |]; l = nil; r = nil }

let insert_slot n i src routes =
  let w = width n in
  let srcs = Array.make (w + 1) src and sets = Array.make (w + 1) routes in
  Array.blit n.srcs 0 srcs 0 i;
  Array.blit n.sets 0 sets 0 i;
  Array.blit n.srcs i srcs (i + 1) (w - i);
  Array.blit n.sets i sets (i + 1) (w - i);
  n.srcs <- srcs;
  n.sets <- sets

let remove_slot n i =
  let w = width n - 1 in
  let srcs = Array.make w 0 and sets = Array.make w [] in
  Array.blit n.srcs 0 srcs 0 i;
  Array.blit n.sets 0 sets 0 i;
  Array.blit n.srcs (i + 1) srcs i (w - i);
  Array.blit n.sets (i + 1) sets i (w - i);
  n.srcs <- srcs;
  n.sets <- sets

(* Store [routes] in [n]'s slot for [src]; the previous set goes to
   [t.prev]. *)
let set_slot t n src routes =
  let i = slot n src 0 in
  let old = if holds n src i then n.sets.(i) else [] in
  t.prev <- old;
  t.entries <- t.entries - List.length old + List.length routes;
  match (old, routes) with
  | [], [] -> ()
  | [], _ -> insert_slot n i src routes
  | _, [] -> remove_slot n i
  | _, _ -> n.sets.(i) <- routes

(* A junction that lost a child is spliced out. *)
let prune n =
  if width n > 0 then n else if n.l == nil then n.r else if n.r == nil then n.l else n

(* A new leaf [nn] joined to a subtree [n] whose root does not subsume
   it: [nn] above [n], or both under a fresh junction. *)
let splice nn n =
  if Prefix.key_subsumes nn.key n.key then begin
    if Prefix.key_bit n.key (Prefix.key_len nn.key) then nn.r <- n else nn.l <- n;
    nn
  end
  else
    let key = Prefix.key_common nn.key n.key in
    let l, r = if Prefix.key_bit nn.key (Prefix.key_len key) then (n, nn) else (nn, n) in
    { key; srcs = [||]; sets = [||]; l; r }

let rec exchange_node t n k src routes =
  if n == nil || not (n.key = k || Prefix.key_subsumes n.key k) then begin
    t.prev <- [];
    match routes with
    | [] -> n
    | _ ->
      t.entries <- t.entries + List.length routes;
      let nn = leaf k src routes in
      if n == nil then nn else splice nn n
  end
  else begin
    if n.key = k then set_slot t n src routes
    else if Prefix.key_bit k (Prefix.key_len n.key) then
      n.r <- exchange_node t n.r k src routes
    else n.l <- exchange_node t n.l k src routes;
    prune n
  end

let exchange t p src routes =
  t.root <- exchange_node t t.root (Prefix.to_key p) src routes;
  let old = t.prev in
  t.prev <- [];
  old

let clear_prefix t p =
  let srcs = (node t p).srcs in
  Array.iter (fun src -> ignore (exchange t p src [])) srcs;
  Array.length srcs

(* Right subtree, left subtree, then the node: consing what each visit
   yields builds ascending lists. *)
let rec drop_node t src acc n =
  if n == nil then n
  else begin
    n.r <- drop_node t src acc n.r;
    n.l <- drop_node t src acc n.l;
    let i = slot n src 0 in
    if holds n src i then begin
      t.entries <- t.entries - List.length n.sets.(i);
      remove_slot n i;
      acc := Prefix.of_key n.key :: !acc
    end;
    prune n
  end

let drop_source t src =
  let acc = ref [] in
  t.root <- drop_node t src acc t.root;
  !acc

let rec iter_node f n =
  if n != nil then begin
    if width n > 0 then f (Prefix.of_key n.key);
    iter_node f n.l;
    iter_node f n.r
  end

let iter_prefixes f t = iter_node f t.root
let entry_count t = t.entries

let clear t =
  t.root <- nil;
  t.entries <- 0

let rec dump_node by_src n =
  if n != nil then begin
    dump_node by_src n.r;
    dump_node by_src n.l;
    if width n > 0 then begin
      let p = Prefix.of_key n.key in
      for i = 0 to width n - 1 do
        let src = n.srcs.(i) in
        let rest = Option.value (Hashtbl.find_opt by_src src) ~default:[] in
        Hashtbl.replace by_src src ((p, n.sets.(i)) :: rest)
      done
    end
  end

let dump t =
  let by_src = Hashtbl.create 16 in
  dump_node by_src t.root;
  Hashtbl.fold (fun src entries acc -> (src, entries) :: acc) by_src []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
