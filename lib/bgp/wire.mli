(** Binary wire codec for BGP messages (RFC 4271), with 4-byte ASNs
    (RFC 6793) and the add-paths Path Identifier extension (the
    draft-ietf-idr-add-paths encoding ABRR relies on).

    A {!Msg.update} whose announcements carry differing attribute sets is
    encoded as several UPDATE messages (one per distinct attribute set),
    each at most {!max_message_size} bytes; [encode] therefore returns a
    list of wire messages. *)

type error =
  | Truncated
  | Bad_marker
  | Bad_length of int
  | Bad_type of int
  | Bad_attribute of string
  | Bad_capability of string

val pp_error : Format.formatter -> error -> unit

val max_message_size : int
(** 4096 octets (RFC 4271 §4). *)

val header_size : int
(** 19 octets. *)

val encode : add_paths:bool -> Msg.t -> bytes list
(** Encode a message. OPEN / KEEPALIVE / NOTIFICATION yield exactly one
    wire message; UPDATE may yield several (attribute grouping and the
    4096-byte ceiling). *)

(** {1 Analytical sizing} *)

(** The bytes and messages [encode] would produce for one UPDATE,
    accumulated one withdrawal or announcement at a time — the same
    attribute sizing ({!Route.wire_len}), grouping by attribute block and
    greedy 4096-byte chunking, but no buffer, list or table entry is
    allocated. Each group's chunk count is kept up to date as its routes
    arrive, so only the order of withdrawals among themselves and of
    routes within a group matters, as in [encode]. Groups are found
    through a domain-local open-addressed table keyed on the block's
    hash and confirmed with {!Route.attrs_equal}, so blocks interned in
    another domain still group with their equals. This backs the
    simulator's per-transmission byte/message accounting
    (Proto.wire_size); its agreement with [encode] is pinned by
    differential tests. *)
module Sizer : sig
  type t

  val create : add_paths:bool -> t
  (** Start sizing an UPDATE. The accumulator is the domain's scratch
      table; only a second accumulator created before the first one's
      {!total} gets a table of its own. *)

  val withdraw : t -> Netaddr.Prefix.t -> unit
  (** Add one withdrawn NLRI (its path id does not change its size). *)

  val announce : t -> Route.t -> unit
  (** Add one announced route to its attribute block's group. *)

  val finish : t -> unit
  (** The end of the call: the scratch table drops its references to
      attribute blocks, so that it keeps none alive. Feed no more items
      after this. *)

  val bytes : t -> int
  val msgs : t -> int
  (** The totals after {!finish}, read without building a pair; valid
      until the domain's next {!create}. *)

  val total : t -> int * int
  (** {!finish}, then [(bytes, messages)]. *)
end

val measure_update : add_paths:bool -> Msg.update -> int * int
(** [(bytes, messages)] that [encode] would produce for this update: the
    {!Sizer} fed with the withdrawals, then the announcements, in
    order. *)

val decode : add_paths:bool -> bytes -> pos:int -> (Msg.t * int, error) result
(** Decode one message starting at [pos]; returns the message and the
    position just past it. Updates that were split by [encode] decode as
    separate UPDATE messages. *)

val decode_all : add_paths:bool -> bytes -> (Msg.t list, error) result
(** Decode a concatenated stream of messages. *)

(** {1 Single-route entries}

    One attribute block stored as the wire bytes of an add-paths UPDATE
    that announces a single route: path id 0, the default prefix.
    [Snapshot]'s attribute table holds one entry per distinct block.
    The writer and the reader work in place, on the caller's bytes; the
    reader accepts exactly the entries whose bytes {!decode_all} (with
    add-paths) reads as one UPDATE announcing one route and withdrawing
    none, and returns that route's block. *)

val write_attrs :
  Route.attrs -> bytes -> int -> int
(** [write_attrs a b pos] writes [a]'s path-attribute section, exactly
    {!Route.wire_len}[ a] bytes, at [pos] and returns the position just
    past it. The attribute encoder {!encode} itself uses. *)

val attrs_entry_size : Route.attrs -> int
(** [header_size + 2 + 2 + Route.wire_len a + 5]: the header, the empty
    withdrawn-routes field, the attribute length, the attributes and
    the NLRI (a 4-byte path id and a zero prefix length). *)

val write_attrs_entry : Route.attrs -> bytes -> int -> unit
(** [write_attrs_entry a b pos] writes the {!attrs_entry_size}[ a]
    bytes that {!encode} gives for the UPDATE announcing
    [Route.of_attrs ~prefix:Netaddr.Prefix.default a] with add-paths.
    @raise Invalid_argument when that exceeds {!max_message_size}: no
    single UPDATE can carry the block. *)

val read_attrs_entry : string -> pos:int -> len:int -> (Route.attrs, error) result
(** [read_attrs_entry s ~pos ~len] parses the entry in [s] from [pos] to
    [pos + len] with the checks of {!decode}, plus: the entry is exactly
    one message, an UPDATE that withdraws nothing and announces exactly
    one route (any prefix and path id). Returns the interned block. It
    copies no bytes and builds no message. *)
