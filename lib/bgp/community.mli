(** Standard BGP communities (RFC 1997): 32-bit values written AS:tag. *)

type t = private int

val make : int -> int -> t
(** [make asn tag] with both in [0, 2^16). @raise Invalid_argument. *)

val of_int32_bits : int -> t
(** Raw 32-bit value (masked). *)

val to_int : t -> int
val asn : t -> int
val tag : t -> int
val no_export : t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
