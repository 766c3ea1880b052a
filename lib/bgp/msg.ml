open Netaddr

type withdrawal = { prefix : Prefix.t; path_id : int }
type update = { withdrawn : withdrawal list; announced : Route.t list }

type open_params = {
  asn : Asn.t;
  hold_time : int;
  bgp_id : Ipv4.t;
  add_paths : bool;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_params
  | Update of update
  | Keepalive
  | Notification of notification

let update ?(withdrawn = []) announced = Update { withdrawn; announced }
let withdrawal ?(path_id = 0) prefix = { prefix; path_id }

let pp fmt = function
  | Open o ->
    Format.fprintf fmt "OPEN(as=%a id=%a hold=%d add-paths=%b)" Asn.pp o.asn
      Ipv4.pp o.bgp_id o.hold_time o.add_paths
  | Update u ->
    Format.fprintf fmt "UPDATE(withdraw=[%a] announce=[%a])"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
         (fun f w -> Format.fprintf f "%a#%d" Prefix.pp w.prefix w.path_id))
      u.withdrawn
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
         Route.pp)
      u.announced
  | Keepalive -> Format.pp_print_string fmt "KEEPALIVE"
  | Notification n ->
    Format.fprintf fmt "NOTIFICATION(code=%d subcode=%d)" n.code n.subcode
