(** Fixed-width bin histogram over floats. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** @raise Invalid_argument if [hi <= lo] or [bins < 1]. Samples outside
    [lo, hi) land in the first/last bin. *)

val add : t -> float -> unit

val count : t -> int
(** Total samples added. *)

val bin_counts : t -> int array
(** Per-bin sample counts, lowest bin first. *)

val bin_bounds : t -> int -> float * float
(** [(lo, hi)] bounds of bin [i]. *)

val pp : ?width:int -> Format.formatter -> t -> unit
(** ASCII bar rendering. *)
