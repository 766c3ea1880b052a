(** BGP AS_PATH attribute: a list of segments (RFC 4271 §5.1.2). *)

type segment =
  | Seq of Asn.t list  (** AS_SEQUENCE: ordered ASes *)
  | Set of Asn.t list  (** AS_SET: unordered aggregate, counts as 1 hop *)
  | Confed_seq of Asn.t list
      (** AS_CONFED_SEQUENCE (RFC 5065): member-AS hops inside a
          confederation; invisible to path length and stripped at true
          AS boundaries *)
  | Confed_set of Asn.t list  (** AS_CONFED_SET *)

type t
(** Hash-consed: structurally equal paths built within one domain share
    a single node, so {!equal} is usually a pointer comparison and
    {!length} is precomputed. Construction functions intern their
    result in a per-domain weak {!Intern} table (entries are reclaimed
    once no route references them): a lookup hashes the segment list
    and compares it with the segments of each path of that hash, and
    only a miss builds a path. *)

val empty : t
(** The empty path (locally originated route). *)

val of_segments : segment list -> t
val segments : t -> segment list

val of_asns : Asn.t list -> t
(** Single AS_SEQUENCE segment; [of_asns []] is [empty]. *)

val length : t -> int
(** Path length for the decision process: each AS in a SEQ counts 1,
    each SET segment counts 1 (RFC 4271 §9.1.2.2.a); confederation
    segments count 0 (RFC 5065 §5.3). *)

val prepend : Asn.t -> t -> t
(** Prepend one AS to the leftmost SEQ segment (creating one if needed). *)

val prepend_confed : Asn.t -> t -> t
(** Prepend one member-AS to the leftmost CONFED_SEQ segment (creating
    one if needed) — what a router does when crossing a confed-eBGP
    boundary. *)

val strip_confed : t -> t
(** Remove all confederation segments (done when a route leaves the
    confederation through a true eBGP session). *)

val confed_contains : Asn.t -> t -> bool
(** Does any confederation segment mention the member-AS? (confed loop
    detection) *)

val contains : Asn.t -> t -> bool
(** eBGP loop detection: does the path traverse the given AS? *)

val first_as : t -> Asn.t option
(** Leftmost true AS (confederation segments are skipped): the
    neighbouring AS the route was learned from. [None] for the empty
    path and paths starting with a SET. *)

val origin_as : t -> Asn.t option
(** Rightmost AS: the route's originating AS. *)

val compare : t -> t -> int
(** Total structural order (physical equality fast path). *)

val equal : t -> t -> bool
(** Physical equality fast path; falls back to hash + structure, so
    paths interned by different domains still compare correctly. *)

val hash : t -> int
(** Precomputed structural hash, O(1). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
