(** A router's output side (DESIGN.md, "Fan-out"): the domain's outbox
    that an entry point fills, the per-peer sessions with their MRAI
    timers and merged pending deltas, and the wire sizing of every batch
    sent. {!flush} empties the outbox, so nothing is pending at an event
    boundary. *)

open Eventsim

type t

val create :
  id:int -> config:Config.t -> counters:Counters.t -> now:(unit -> Time.t) ->
  schedule_flush:(peer:int -> Time.t -> unit) ->
  transmit:(dst:int -> bytes:int -> msgs:int -> Proto.item list -> unit) -> t
(** Router [id]'s output side: sends are counted in [counters], MRAI
    flushes armed through [schedule_flush], and batches handed to
    [transmit] with their wire size. *)

val enqueue : t -> int -> Proto.item -> unit
(** [enqueue o dst item] queues [item] toward [dst] until the next
    {!flush}. Allocates one list cell. *)

val flush : t -> unit
(** Send what the router enqueued: destinations in ascending id order,
    each peer's items sorted by channel and prefix (items with the same
    key in enqueue order). A self-send is not sorted: it carries the
    items in enqueue order, with zero bytes. Consecutive peers given the
    same items, element for element, share one list. While a peer's
    MRAI timer runs, its items merge into the session's pending set and
    a flush timer is armed. *)

val flush_peer : t -> peer:int -> unit
(** The MRAI timer toward [peer] fired: transmit the session's pending
    deltas. No-op when the session is gone. *)

val drop_session : t -> int -> unit
(** Forget the session toward a failed peer, pending deltas included. *)

val clear : t -> unit
(** Forget every session (cold start). *)

(** {1 Checkpoint support} *)

type session_state = {
  ss_peer : int;
  ss_mrai_until : Time.t;
  ss_pending : Proto.item list;  (** MRAI-suppressed merged deltas *)
  ss_flush_scheduled : bool;
}

val dump : t -> session_state list
(** Peers ascending; pending items in the order {!flush} sends them. *)

val load : t -> session_state list -> unit
(** Add the sessions to the (cleared) table. *)
