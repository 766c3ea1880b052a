(** BGP session finite-state machine (RFC 4271 §8), with capability
    negotiation for 4-byte ASNs and add-paths.

    The FSM is transport-agnostic: callers feed it events (timers,
    connection notifications, decoded messages) and it returns actions
    (messages to send, state announcements). It backs the §3.3 analysis
    of ARR session scaling — establishing thousands of sessions — and
    the boot-time experiment in the benchmark harness. *)

open Netaddr

type state =
  | Idle
  | Connect
  | Active
  | Open_sent
  | Open_confirm
  | Established

type config = {
  local_asn : Asn.t;
  local_id : Ipv4.t;
  hold_time : int;  (** proposed hold time, seconds; 0 disables keepalives *)
  add_paths : bool;  (** offer the add-paths capability *)
  connect_retry : int;  (** ConnectRetry timer, seconds *)
}

type t

type event =
  | Start  (** operator enables the session *)
  | Stop
  | Connection_up  (** transport (TCP) established *)
  | Connection_failed
  | Message of Msg.t
  | Hold_timer_expired
  | Keepalive_timer_expired
  | Connect_retry_expired

type action =
  | Send of Msg.t
  | Connect_transport  (** open the TCP connection *)
  | Close_transport
  | Session_established of { peer_asn : Asn.t; peer_id : Ipv4.t; add_paths : bool }
      (** negotiated: add-paths is on iff both sides offered it *)
  | Session_down of string
  | Set_hold_timer of int  (** seconds; 0 cancels *)
  | Set_keepalive_timer of int
  | Set_connect_retry of int

val create : config -> t
val state : t -> state

val negotiated_add_paths : t -> bool
(** Valid once established. *)

val peer : t -> (Asn.t * Ipv4.t) option
(** Peer ASN and identifier, once OPEN has been received. *)

val handle : t -> event -> action list
(** Feed one event; returns the actions to perform, in order. The FSM
    never raises on unexpected events — protocol errors produce
    [Send (Notification _)] plus [Session_down] and a reset to Idle. *)
