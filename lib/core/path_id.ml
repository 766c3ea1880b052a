open Netaddr

type entry = { mutable routes : Bgp.Route.t list; mutable next : int }
type t = (int, entry) Hashtbl.t

let create () = Hashtbl.create 64

let dedup routes =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest ->
      if List.exists (Bgp.Route.same_path r) acc then go acc rest
      else go (r :: acc) rest
  in
  go [] routes

let assign t prefix routes =
  let key = Prefix.to_key prefix in
  match Hashtbl.find_opt t key with
  | None when routes = [] -> ([], [])  (* nothing held or asked: no entry *)
  | found ->
    let entry =
      match found with
      | Some e -> e
      | None ->
        let e = { routes = []; next = 1 } in
        Hashtbl.add t key e;
        e
    in
    let routes = dedup routes in
    let assigned =
      List.map
        (fun r ->
          match List.find_opt (Bgp.Route.same_path r) entry.routes with
          | Some old -> Bgp.Route.with_path_id old.Bgp.Route.path_id r
          | None ->
            let id = entry.next in
            entry.next <- id + 1;
            Bgp.Route.with_path_id id r)
        routes
    in
    let withdrawn =
      List.filter_map
        (fun (old : Bgp.Route.t) ->
          if List.exists (Bgp.Route.same_path old) assigned then None
          else Some old.Bgp.Route.path_id)
        entry.routes
    in
    entry.routes <- assigned;
    if assigned = [] then Hashtbl.remove t key;
    (assigned, withdrawn)

let current t prefix =
  match Hashtbl.find_opt t (Prefix.to_key prefix) with
  | None -> []
  | Some e -> e.routes

let drop_prefix t prefix =
  let key = Prefix.to_key prefix in
  match Hashtbl.find_opt t key with
  | None -> []
  | Some e ->
    Hashtbl.remove t key;
    List.map (fun (r : Bgp.Route.t) -> r.Bgp.Route.path_id) e.routes

let clear t = Hashtbl.reset t

type dump = (int * Bgp.Route.t list * int) list

let dump t =
  if Hashtbl.length t = 0 then []
  else
    Hashtbl.fold (fun key e acc -> (key, e.routes, e.next) :: acc) t []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let load t d =
  Hashtbl.reset t;
  List.iter (fun (key, routes, next) -> Hashtbl.add t key { routes; next }) d
