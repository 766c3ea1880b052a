(** IPv4 prefixes in canonical form (all host bits zero). *)

type t = private { addr : Ipv4.t; len : int }

val make : Ipv4.t -> int -> t
(** [make addr len] canonicalises [addr] by zeroing host bits.
    @raise Invalid_argument if [len] is outside 0..32. *)

val v : string -> int -> t
(** [v "10.0.0.0" 8] — convenience constructor from dotted quad. *)

val addr : t -> Ipv4.t
val len : t -> int

val default : t
(** 0.0.0.0/0 *)

val host : Ipv4.t -> t
(** /32 prefix for a single address. *)

val of_string : string -> t
(** Parse "a.b.c.d/len". @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Total order: by address, then by length (shorter first). *)

val equal : t -> t -> bool
val hash : t -> int

val to_key : t -> int
(** Injective encoding of a prefix into a single integer, usable as a
    hashtable key: [addr lsl 6 lor len]. *)

val of_key : int -> t
(** The inverse of {!to_key} on its image. Other integers give some
    prefix without complaint; check untrusted keys with {!is_key}. *)

val is_key : int -> bool
(** [is_key k] iff [k = to_key p] for some prefix [p]: [k >= 0], a
    length of at most 32, an address below 2{^32} and no host bits. *)

(** {2 Key arithmetic}

    Keys order as their prefixes do ([Int.compare (to_key p) (to_key q)]
    has the sign of [compare p q]), so a trie over keys descends and
    folds without building a [t]. *)

val key_len : int -> int
(** [key_len (to_key p) = len p]. *)

val key_subsumes : int -> int -> bool
(** [key_subsumes (to_key p) (to_key q) = subsumes p q]. *)

val key_bit : int -> int -> bool
(** [key_bit (to_key p) i] is address bit [i < 32] of [p]: [bit p i]
    when [i < len p], [false] beyond (host bits are zero). *)

val key_common : int -> int -> int
(** The key of the longest prefix that subsumes both. *)

val mem : Ipv4.t -> t -> bool
(** [mem a p] is true iff address [a] falls inside prefix [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is true iff [p] contains every address of [q]
    (i.e. [q] is equal to or more specific than [p]). *)

val overlaps : t -> t -> bool
(** True iff the prefixes share at least one address. *)

val first : t -> Ipv4.t
(** Lowest address covered. *)

val last : t -> Ipv4.t
(** Highest address covered. *)

val size : t -> int
(** Number of addresses covered (as an OCaml int; safe for IPv4). *)

val split : t -> t * t
(** Split into the two child half-prefixes.
    @raise Invalid_argument on a /32. *)

val bit : t -> int -> bool
(** [bit p i] is the [i]-th most significant address bit, [i < len p]. *)
