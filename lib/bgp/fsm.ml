open Netaddr

type state = Idle | Connect | Active | Open_sent | Open_confirm | Established

type config = {
  local_asn : Asn.t;
  local_id : Ipv4.t;
  hold_time : int;
  add_paths : bool;
  connect_retry : int;
}

type t = {
  config : config;
  mutable state : state;
  mutable peer_asn : Asn.t option;
  mutable peer_id : Ipv4.t option;
  mutable negotiated_hold : int;
  mutable negotiated_add_paths : bool;
}

type event =
  | Start
  | Stop
  | Connection_up
  | Connection_failed
  | Message of Msg.t
  | Hold_timer_expired
  | Keepalive_timer_expired
  | Connect_retry_expired

type action =
  | Send of Msg.t
  | Connect_transport
  | Close_transport
  | Session_established of { peer_asn : Asn.t; peer_id : Ipv4.t; add_paths : bool }
  | Session_down of string
  | Set_hold_timer of int
  | Set_keepalive_timer of int
  | Set_connect_retry of int

let create config =
  {
    config;
    state = Idle;
    peer_asn = None;
    peer_id = None;
    negotiated_hold = config.hold_time;
    negotiated_add_paths = false;
  }

let state t = t.state
let negotiated_add_paths t = t.negotiated_add_paths

let peer t =
  match (t.peer_asn, t.peer_id) with
  | Some asn, Some id -> Some (asn, id)
  | _, _ -> None

let open_message t =
  Msg.Open
    {
      Msg.asn = t.config.local_asn;
      hold_time = t.config.hold_time;
      bgp_id = t.config.local_id;
      add_paths = t.config.add_paths;
    }

let reset t =
  t.state <- Idle;
  t.peer_asn <- None;
  t.peer_id <- None;
  t.negotiated_add_paths <- false

(* Tear the session down with a NOTIFICATION. *)
let fail t ~code ~subcode reason =
  let was_up = t.state = Established in
  reset t;
  [ Send (Msg.Notification { Msg.code; subcode; data = reason }) ]
  @ (if was_up then [ Session_down reason ] else [])
  @ [ Close_transport; Set_hold_timer 0; Set_keepalive_timer 0 ]

let accept_open t (o : Msg.open_params) =
  if o.Msg.hold_time <> 0 && o.Msg.hold_time < 3 then
    fail t ~code:2 ~subcode:6 "unacceptable hold time"
  else begin
    t.peer_asn <- Some o.Msg.asn;
    t.peer_id <- Some o.Msg.bgp_id;
    t.negotiated_hold <-
      (if o.Msg.hold_time = 0 || t.config.hold_time = 0 then 0
       else min o.Msg.hold_time t.config.hold_time);
    t.negotiated_add_paths <- t.config.add_paths && o.Msg.add_paths;
    t.state <- Open_confirm;
    [ Send Msg.Keepalive; Set_hold_timer t.negotiated_hold;
      Set_keepalive_timer (t.negotiated_hold / 3) ]
  end

let establish t =
  t.state <- Established;
  match (t.peer_asn, t.peer_id) with
  | Some peer_asn, Some peer_id ->
    [ Session_established
        { peer_asn; peer_id; add_paths = t.negotiated_add_paths } ]
  | _, _ ->
    (* cannot happen: OPEN precedes the keepalive that establishes *)
    reset t;
    [ Session_down "internal: missing OPEN" ]

let handle t event =
  match (t.state, event) with
  (* --- administrative --------------------------------------------- *)
  | Idle, Start ->
    t.state <- Connect;
    [ Connect_transport; Set_connect_retry t.config.connect_retry ]
  | _, Stop ->
    let was_up = t.state = Established in
    reset t;
    (if was_up then [ Session_down "administrative stop" ] else [])
    @ [ Close_transport; Set_hold_timer 0; Set_keepalive_timer 0 ]
  | Idle, _ -> []
  (* --- connecting --------------------------------------------------- *)
  | Connect, Connection_up | Active, Connection_up ->
    t.state <- Open_sent;
    [ Send (open_message t); Set_connect_retry 0 ]
  | Connect, Connection_failed ->
    t.state <- Active;
    [ Set_connect_retry t.config.connect_retry ]
  | Active, Connection_failed -> []
  | (Connect | Active), Connect_retry_expired ->
    t.state <- Connect;
    [ Connect_transport; Set_connect_retry t.config.connect_retry ]
  | (Connect | Active), _ -> []
  (* --- OPEN exchange ------------------------------------------------ *)
  | Open_sent, Message (Msg.Open o) -> accept_open t o
  | Open_confirm, Message Msg.Keepalive -> establish t
  | Open_confirm, Message (Msg.Open _) ->
    fail t ~code:6 ~subcode:7 "collision: duplicate OPEN"
  (* --- established --------------------------------------------------- *)
  | Established, Message Msg.Keepalive -> [ Set_hold_timer t.negotiated_hold ]
  | Established, Message (Msg.Update _) -> [ Set_hold_timer t.negotiated_hold ]
  | Established, Keepalive_timer_expired ->
    [ Send Msg.Keepalive; Set_keepalive_timer (t.negotiated_hold / 3) ]
  (* --- errors common to the session states --------------------------- *)
  | (Open_sent | Open_confirm | Established), Hold_timer_expired ->
    fail t ~code:4 ~subcode:0 "hold timer expired"
  | (Open_sent | Open_confirm | Established), Message (Msg.Notification n) ->
    let was_up = t.state = Established in
    reset t;
    (if was_up then
       [ Session_down (Printf.sprintf "peer notification %d/%d" n.Msg.code n.Msg.subcode) ]
     else [])
    @ [ Close_transport; Set_hold_timer 0; Set_keepalive_timer 0 ]
  | (Open_sent | Open_confirm | Established), Connection_failed ->
    let was_up = t.state = Established in
    reset t;
    (if was_up then [ Session_down "transport failure" ] else [])
    @ [ Set_hold_timer 0; Set_keepalive_timer 0 ]
  | Open_sent, Message _ -> fail t ~code:5 ~subcode:0 "message before OPEN"
  | Open_confirm, Message _ ->
    fail t ~code:5 ~subcode:0 "unexpected message in OpenConfirm"
  | Established, Message (Msg.Open _) ->
    fail t ~code:6 ~subcode:7 "OPEN on established session"
  | (Open_sent | Open_confirm | Established), (Connection_up | Connect_retry_expired)
    ->
    []
  | (Open_sent | Open_confirm), Keepalive_timer_expired -> []
  | Established, Start -> []
  | (Open_sent | Open_confirm), Start -> []
