(** Simulated time: integer microseconds since simulation start.

    Plain [int] arithmetic works on values of this type (the simulator
    adds delays and compares deadlines directly); the constructors below
    exist so call sites read in natural units. At 63-bit [int] range the
    representation covers ±146,000 years — overflow is not a practical
    concern. *)

type t = int

val zero : t
(** The simulation epoch. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val minutes : int -> t
val hours : int -> t
val days : int -> t

val to_sec : t -> float
(** Seconds as a float, e.g. for reporting ([to_sec (ms 12_500) = 12.5]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable, e.g. "12.500s". *)
