open Netaddr

type channel = Mesh | Confed | To_trr | To_arr | From_trr | From_arr | To_rcp | From_rcp

type delta = {
  prefix : Prefix.t;
  routes : Bgp.Route.t list;
  withdrawn_ids : int list;
}

type item = channel * delta

let delta ?(withdrawn_ids = []) prefix routes = { prefix; routes; withdrawn_ids }
let is_withdraw d = match d.routes with [] -> true | _ :: _ -> false

let to_update deltas =
  let withdrawn =
    List.concat_map
      (fun d ->
        List.map (fun path_id -> { Bgp.Msg.prefix = d.prefix; path_id }) d.withdrawn_ids)
      deltas
  in
  let announced = List.concat_map (fun d -> d.routes) deltas in
  { Bgp.Msg.withdrawn; announced }

(* Analytical: sizes what [Bgp.Wire.encode] would emit for [to_update]
   without building the update — this runs on every transmission
   (Outbox.transmit_now). Withdrawals and announcements each keep their
   [to_update] order, which is all the sizer depends on. *)
let rec size_withdrawn sizer prefix = function
  | [] -> ()
  | _ :: ids ->
    Bgp.Wire.Sizer.withdraw sizer prefix;
    size_withdrawn sizer prefix ids

let rec size_announced sizer = function
  | [] -> ()
  | r :: rs ->
    Bgp.Wire.Sizer.announce sizer r;
    size_announced sizer rs

let size_delta sizer d =
  size_withdrawn sizer d.prefix d.withdrawn_ids;
  size_announced sizer d.routes

let rec size_deltas sizer = function
  | [] -> ()
  | d :: ds ->
    size_delta sizer d;
    size_deltas sizer ds

let wire_size ~add_paths deltas =
  let sizer = Bgp.Wire.Sizer.create ~add_paths in
  size_deltas sizer deltas;
  Bgp.Wire.Sizer.total sizer

let channel_tag = function
  | Mesh -> 0
  | Confed -> 5
  | To_trr -> 1
  | To_arr -> 2
  | From_trr -> 3
  | From_arr -> 4
  | To_rcp -> 6
  | From_rcp -> 7

let channel_of_tag = function
  | 0 -> Mesh
  | 1 -> To_trr
  | 2 -> To_arr
  | 3 -> From_trr
  | 4 -> From_arr
  | 5 -> Confed
  | 6 -> To_rcp
  | 7 -> From_rcp
  | n -> invalid_arg (Printf.sprintf "Proto.channel_of_tag: %d" n)

(* Items ordered by channel tag, then prefix: the order [Outbox] sends
   a destination's items in. [Prefix.to_key] ascends with
   [Prefix.compare], and a tag takes 3 bits above the 38 of the key. *)
let item_key ((ch, d) : item) = (channel_tag ch lsl 38) lor Prefix.to_key d.prefix

(* [0]: the keys ascend strictly; [1]: they ascend with repeats; [2]:
   they do not ascend. *)
let rec key_order order prev = function
  | [] -> order
  | x :: xs ->
    let k = item_key x in
    if k > prev then key_order order k xs
    else if k = prev then key_order 1 k xs
    else 2

(* On ascending keys duplicates are adjacent: keep the last of each run. *)
let[@tail_mod_cons] rec last_of_runs = function
  | ([] | [ _ ]) as items -> items
  | x :: (y :: _ as rest) ->
    if item_key x = item_key y then last_of_runs rest else x :: last_of_runs rest

(* Same-prefix churn within one delivery collapses to its final delta:
   the receiver replaces the stored route set per (channel, prefix), so
   only the last item per key can influence state. Keys first seen later
   keep their later position; relative order of surviving items is
   preserved. A non-self delivery arrives sorted by key, so the usual
   case is a walk that returns the list itself; only an unsorted one
   (a self-send can be) takes the table. *)
let coalesce items =
  match items with
  | [] | [ _ ] -> items
  | x :: xs -> (
    match key_order 0 (item_key x) xs with
    | 0 -> items
    | 1 -> last_of_runs items
    | _ ->
      let seen = Hashtbl.create 16 in
      let keep =
        List.filter
          (fun it ->
            let key = item_key it in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          (List.rev items)
      in
      List.rev keep)
