module D = Bgp.Decision
module R = Bgp.Route
module Rib = Bgp.Rib

type t = {
  mutable full : bool;  (* structural event: always recompute *)
  mutable planes : int;
  mutable routes : R.t list;  (* routes added to / removed from tables *)
}

type batch = t Rib.Dirty.t

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

let create_batch () : batch = Rib.Dirty.create ()
let fresh () = { full = false; planes = 0; routes = [] }
let churn_of batch p = Rib.Dirty.mark batch p fresh
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
