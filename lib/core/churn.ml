open Netaddr
module D = Bgp.Decision
module R = Bgp.Route
module Rib = Bgp.Rib

type t = {
  mutable full : bool;  (* structural event: always recompute *)
  mutable planes : int;
  mutable routes : R.t list;  (* routes added to / removed from tables *)
}

(* The domain's dirty set (DESIGN.md, "Batched dirty tracking"). Each
   entry point that marks drains before it returns, so one set serves
   every batch a domain runs, like [Outbox]'s buffer. Entries are
   numbered in marking order; [slots] finds an entry by prefix key
   (open addressing, linear probing, at most half full). The records
   are pooled: entry [e] always uses [recs.(e)], reset when drained, so
   a warm set marks and drains without allocating, and no drained route
   stays reachable from it. *)
type batch = {
  mutable slots : int array;  (* entry + 1, 0 = free; length a power of 2 *)
  mutable pos : int array;  (* by entry: its slot *)
  mutable keys : int array;  (* by entry: [Prefix.to_key]; sorted by the drain *)
  mutable order : int array;  (* entry numbers, permuted with [keys] *)
  mutable prefixes : Prefix.t array;  (* by entry *)
  mutable recs : t array;  (* by entry *)
  mutable n : int;
}

let fresh _ = { full = false; planes = 0; routes = [] }

let hash key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The slot holding [key], or the free slot where it would go. *)
let rec probe s key i =
  let e = s.slots.(i) in
  if e = 0 || s.keys.(e - 1) = key then i
  else probe s key ((i + 1) land (Array.length s.slots - 1))

let create_set () =
  { slots = Array.make 64 0; pos = Array.make 32 0; keys = Array.make 32 0;
    order = Array.make 32 0; prefixes = Array.make 32 Prefix.default;
    recs = Array.init 32 fresh; n = 0 }

let grow s =
  let n = Array.length s.keys and cap = 2 * Array.length s.keys in
  s.pos <- Key_sort.extend s.pos cap 0;
  s.keys <- Key_sort.extend s.keys cap 0;
  s.order <- Key_sort.extend s.order cap 0;
  s.prefixes <- Key_sort.extend s.prefixes cap Prefix.default;
  let recs = s.recs in
  s.recs <- Array.init cap (fun e -> if e < n then recs.(e) else fresh e);
  s.slots <- Array.make (2 * cap) 0;
  for e = 0 to s.n - 1 do
    let i = probe s s.keys.(e) (hash s.keys.(e) (2 * cap - 1)) in
    s.slots.(i) <- e + 1;
    s.pos.(e) <- i
  done

let rec churn_of s p =
  let key = Prefix.to_key p in
  let i = probe s key (hash key (Array.length s.slots - 1)) in
  let e = s.slots.(i) in
  if e > 0 then s.recs.(e - 1)
  else if s.n = Array.length s.keys then begin
    grow s;
    churn_of s p
  end
  else begin
    let e = s.n in
    s.n <- e + 1;
    s.slots.(i) <- e + 1;
    s.pos.(e) <- i;
    s.keys.(e) <- key;
    s.order.(e) <- e;
    s.prefixes.(e) <- p;
    s.recs.(e)
  end

(* Free the slots of the [n] entries and reset their records. *)
let release s n =
  for e = 0 to n - 1 do
    s.slots.(s.pos.(e)) <- 0;
    let c = s.recs.(e) in
    c.full <- false;
    c.planes <- 0;
    c.routes <- []
  done;
  s.n <- 0

let key = Domain.DLS.new_key create_set

let batch () =
  let s = Domain.DLS.get key in
  (* what a batch an exception aborted left behind *)
  if s.n > 0 then release s s.n;
  s

let is_empty s = s.n = 0

let rec visit s x f j n =
  if j < n then begin
    let e = s.order.(j) in
    f x s.prefixes.(e) s.recs.(e);
    visit s x f (j + 1) n
  end

let drain s x f =
  let n = s.n in
  Key_sort.sort s.keys s.order n;
  match visit s x f 0 n with
  | () -> release s n
  | exception ex ->
    let bt = Printexc.get_raw_backtrace () in
    release s n;
    Printexc.raise_with_backtrace ex bt

(* Which cached incumbents an event stored via a given channel can
   challenge. The Loc-RIB plane covers every output derived from the
   full candidate set (client/confed/RCP-client exports are functions of
   the winner and the step-1-4 survivors); the TRR planes ([out_clients],
   [out_mesh]) cover the reflector outputs computed over the
   clientside/mesh candidate subset; the ARR plane covers the reflected
   best-AS-level set over the managed RIB. *)
let plane_loc = 1 and plane_trr = 2 and plane_mesh = 4 and plane_arr = 8

let planes_of_channel = function
  | Proto.Mesh -> plane_loc lor plane_trr
  | Proto.Confed -> plane_loc
  | Proto.To_rcp -> 0 (* RCP nodes always recompute in full *)
  | Proto.From_rcp -> plane_loc
  | Proto.To_trr -> plane_loc lor plane_trr lor plane_mesh
  | Proto.To_arr -> plane_arr
  | Proto.From_trr -> plane_loc
  | Proto.From_arr -> plane_loc

let planes_clientside = plane_loc lor plane_trr lor plane_mesh

let mark_full batch p = (churn_of batch p).full <- true
let mark_noop batch p = ignore (churn_of batch p)

let mark_delta batch p planes routes =
  let c = churn_of batch p in
  c.planes <- c.planes lor planes;
  c.routes <- (match c.routes with [] -> routes | rs -> List.rev_append routes rs)

let note_store batch p channel old routes =
  if List.equal R.equal old routes then mark_noop batch p
  else
    let planes = planes_of_channel channel in
    match (old, routes) with
    (* one-route fast paths: best-only stores are nearly always one route *)
    | [], _ -> mark_delta batch p planes routes
    | _, [] -> mark_delta batch p planes old
    | [ _ ], [ r ] -> mark_delta batch p planes (r :: old)
    | _ ->
      let adds = List.filter (fun r -> not (List.exists (R.equal r) old)) routes in
      let rems = List.filter (fun r -> not (List.exists (R.equal r) routes)) old in
      (* Routes common to both sets must keep their relative order: the
         stored order feeds candidate loading and hence derived-set
         path-id assignment, so a reorder is not a pure add/remove. *)
      let common_old = List.filter (fun r -> List.exists (R.equal r) routes) old in
      let common_new = List.filter (fun r -> List.exists (R.equal r) old) routes in
      if adds = [] && rems = [] then mark_full batch p
      else if List.equal R.equal common_old common_new then
        mark_delta batch p planes (adds @ rems)
      else mark_full batch p

let needs c plane = c.planes land plane <> 0

let rec all_lose med_mode incumbent = function
  | [] -> true
  | r :: rs ->
    D.intrinsic_loses ~med_mode ~incumbent r && all_lose med_mode incumbent rs

(* Does every churned route strictly lose to the head of [rib]? *)
let loses_to c p ~med_mode rib =
  match Rib.get rib p with
  | [] -> false
  | incumbent :: _ -> all_lose med_mode incumbent c.routes

(* A plane passes when the batch cannot challenge it, the router does
   not compute it, or every churned route loses to its incumbent. *)
let passes c p ~med_mode ~guarded plane rib =
  (not (needs c plane)) || guarded land plane = 0 || loses_to c p ~med_mode rib

type verdict = Full | Delta | Noop

let classify c p ~med_mode ~guarded ~loc ~trr ~mesh ~arr =
  if c.full then Full
  else if c.routes = [] then Noop
  else if
    passes c p ~med_mode ~guarded plane_loc loc
    && passes c p ~med_mode ~guarded plane_trr trr
    && passes c p ~med_mode ~guarded plane_mesh mesh
    && passes c p ~med_mode ~guarded plane_arr arr
  then Delta
  else Full
