open Netaddr
open Eventsim
module Damping = Bgp.Damping
module R = Bgp.Route

type entry = {
  mutable penalty : float;
  mutable stamp : Time.t;  (* time the penalty was last brought current *)
  mutable held : R.t option;  (* the suppressed route awaiting reuse *)
  mutable neighbor : Ipv4.t;
  mutable wake : Time.t;  (* latest reuse wake-up already scheduled *)
}

type t = (int * int, entry) Hashtbl.t  (* (prefix key, path id) *)

let create () : t = Hashtbl.create 16

let fresh tbl key now neighbor =
  let e = { penalty = 0.; stamp = now; held = None; neighbor; wake = Time.zero } in
  Hashtbl.add tbl key e;
  e

let bring_current params e now =
  e.penalty <- Damping.decay params ~penalty:e.penalty ~dt:(now - e.stamp);
  e.stamp <- now

(* Arm a wake-up for when the penalty will have decayed under the reuse
   threshold (+1 ms of slack against float rounding). The [wake] stamp
   keeps repeated suppressions from flooding the event queue with
   redundant timers. *)
let schedule_reuse ~schedule params e now =
  let delay = Damping.reuse_delay params ~penalty:e.penalty + Time.ms 1 in
  if now + delay > e.wake then begin
    e.wake <- now + delay;
    schedule delay
  end

type verdict = Install | Absorbed | Suppressed

let announce tbl params ~now ~schedule ~neighbor ~prev (route : R.t) =
  let key = (Prefix.to_key route.R.prefix, route.R.path_id) in
  match Hashtbl.find_opt tbl key with
  | Some e when e.held <> None ->
    (* Still suppressed: remember the freshest offer, nothing else. *)
    bring_current params e now;
    e.held <- Some route;
    e.neighbor <- neighbor;
    Absorbed
  | found -> (
    (match found with Some e -> bring_current params e now | None -> ());
    let found =
      match prev with
      | Some old when not (R.same_path old route) ->
        let e = match found with Some e -> e | None -> fresh tbl key now neighbor in
        e.penalty <-
          Damping.penalize params ~penalty:e.penalty ~dt:Time.zero Damping.Attr_change;
        Some e
      | Some _ | None -> found
    in
    match found with
    | Some e when Damping.suppresses params e.penalty ->
      e.held <- Some route;
      e.neighbor <- neighbor;
      schedule_reuse ~schedule params e now;
      Suppressed
    | Some _ | None -> Install)

let withdraw tbl params ~now ~neighbor ~prefix ~path_id =
  let key = (Prefix.to_key prefix, path_id) in
  let e = match Hashtbl.find_opt tbl key with Some e -> e | None -> fresh tbl key now neighbor in
  e.penalty <-
    Damping.penalize params ~penalty:e.penalty ~dt:(now - e.stamp) Damping.Withdrawal;
  e.stamp <- now;
  (* Withdrawing a suppressed route: nothing is on offer any more, so
     there is nothing left to reinstate. The penalty stays. *)
  if e.held <> None then e.held <- None

let mature tbl params ~now ~schedule =
  if Hashtbl.length tbl = 0 then []
  else begin
    let entries =
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.fold_left
      (fun reinstated ((key, e) : (int * int) * entry) ->
        bring_current params e now;
        match e.held with
        | Some r when Damping.reusable params e.penalty ->
          e.held <- None;
          (r, e.neighbor) :: reinstated
        | Some _ ->
          schedule_reuse ~schedule params e now;
          reinstated
        | None ->
          (* A decayed-out entry with no held route carries no
             information any more. *)
          if e.penalty < 1. then Hashtbl.remove tbl key;
          reinstated)
      [] entries
    |> List.rev
  end

let clear = Hashtbl.reset

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)

type entry_state = {
  ds_key : int * int;
  ds_penalty : float;
  ds_stamp : Time.t;
  ds_held : R.t option;
  ds_neighbor : Ipv4.t;
  ds_wake : Time.t;
}

let dump tbl =
  Hashtbl.fold
    (fun key e acc ->
      { ds_key = key; ds_penalty = e.penalty; ds_stamp = e.stamp; ds_held = e.held;
        ds_neighbor = e.neighbor; ds_wake = e.wake }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.ds_key b.ds_key)

let load tbl states =
  List.iter
    (fun ds ->
      Hashtbl.replace tbl ds.ds_key
        { penalty = ds.ds_penalty; stamp = ds.ds_stamp; held = ds.ds_held;
          neighbor = ds.ds_neighbor; wake = ds.ds_wake })
    states
