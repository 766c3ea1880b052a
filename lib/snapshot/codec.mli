(** Low-level binary writers and readers for the snapshot format —
    big-endian, length-prefixed, the same house style as [Topo.Mrt].
    Dependency-free: stdlib [Bytes] and [String] only. *)

exception Bad of string
(** Raised by readers on malformed input; the top-level decoder catches
    it and returns [Error _]. Never escapes {!Snapshot.decode}. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [bad fmt ...] raises {!Bad} with a formatted message. *)

(** {1 Writers} — append big-endian values to an {!out}. *)

type out
(** A fixed-size byte buffer. A write that does not fit first calls the
    buffer's [spill], which must hand on the filled part and leave room
    (reset the position, possibly to a new buffer); the buffer never
    grows or copies itself. *)

val out : spill:(out -> unit) -> Bytes.t -> out
(** An empty [out] writing into the given bytes. *)

val buffer : out -> Bytes.t
(** The bytes currently written into; replaced by {!set_buffer}. *)

val length : out -> int
(** Bytes written into {!buffer} since the last spill. *)

val set_buffer : out -> Bytes.t -> unit
(** For a [spill]: continue at position 0 of the given bytes (they may
    be the old ones, once their content is handed on). *)

val reserve : out -> int -> int
(** [reserve o n] makes room for [n] bytes, claims them and returns the
    position in {!buffer} where the caller writes them in place.
    @raise Invalid_argument when [n] exceeds the buffer size. *)

val w8 : out -> int -> unit
val w16 : out -> int -> unit
val w32 : out -> int -> unit
val w64 : out -> int64 -> unit

val wint : out -> int -> unit
(** A full OCaml [int], sign-extended through 64 bits, written without
    boxing an [int64]. *)

val wbool : out -> bool -> unit

val wsub : out -> string -> int -> int -> unit
(** [wsub o s off len]: raw bytes, spilling as often as they need. *)

val wstr : out -> string -> unit
(** 32-bit length prefix + raw bytes. *)

val wlist : out -> (out -> 'a -> unit) -> 'a list -> unit
val warray : out -> (out -> 'a -> unit) -> 'a array -> unit
val wopt : out -> (out -> 'a -> unit) -> 'a option -> unit

(** {1 Readers} — consume from a cursor over an immutable string; every
    read bounds-checks and raises {!Bad} on truncation. *)

type reader

val reader : ?pos:int -> string -> reader
val pos : reader -> int

val need : reader -> int -> unit
(** [need r n] raises {!Bad} unless [n >= 0] bytes remain. *)

val skip : reader -> int -> unit
(** Advance past bytes already checked with {!need}. *)

val r8 : reader -> int
val r16 : reader -> int
val r32 : reader -> int
val r64 : reader -> int64

val rint : reader -> int
(** The inverse of {!wint}, read without boxing. A word that is no
    sign-extended [int] (its top two bits differ) raises {!Bad}. *)

val rbool : reader -> bool
val rstr : reader -> string
val rlist : reader -> (reader -> 'a) -> 'a list
val rarray : reader -> (reader -> 'a) -> 'a array
val ropt : reader -> (reader -> 'a) -> 'a option

(** {1 Integrity} *)

val crc32 : ?crc:int -> ?off:int -> ?len:int -> string -> int
(** Standard reflected CRC-32 (polynomial 0xEDB88320), as used by zip /
    png — the snapshot trailer guards against torn or bit-rotted files.
    [crc] is the CRC of the bytes before this range (default 0, none),
    so [crc32 ~crc:(crc32 a) b = crc32 (a ^ b)]: a stream is checked
    chunk by chunk. @raise Invalid_argument on a range outside [s]. *)
