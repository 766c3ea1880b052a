type segment =
  | Seq of Asn.t list
  | Set of Asn.t list
  | Confed_seq of Asn.t list
  | Confed_set of Asn.t list

(* Paths are hash-consed: [t] is an interned node carrying its segment
   list together with the precomputed decision-process length and a
   structural hash. Within a domain, structurally equal paths share one
   node, so [equal] is (almost always) physical equality and [length] is
   a field read — both sit on the decision-process hot path. *)
type t = { segs : segment list; len : int; hash : int }

let seg_len = function
  | Seq asns -> List.length asns
  | Set _ -> 1
  | Confed_seq _ | Confed_set _ -> 0

let segs_length segs = List.fold_left (fun n s -> n + seg_len s) 0 segs

let hash_asns h asns =
  List.fold_left (fun h a -> (h * 31) + Asn.to_int a) h asns

let hash_seg h = function
  | Seq asns -> hash_asns ((h * 31) + 1) asns
  | Set asns -> hash_asns ((h * 31) + 2) asns
  | Confed_seq asns -> hash_asns ((h * 31) + 3) asns
  | Confed_set asns -> hash_asns ((h * 31) + 4) asns

let hash_segs segs = List.fold_left hash_seg 17 segs land max_int

let seg_equal a b =
  match (a, b) with
  | Seq x, Seq y | Set x, Set y | Confed_seq x, Confed_seq y
  | Confed_set x, Confed_set y ->
    List.equal Asn.equal x y
  | _, _ -> false

let segs_equal = List.equal seg_equal

(* One intern table per domain: simulations are single-domain, so no
   locking is needed, and the weak table lets the GC reclaim paths no
   RIB references anymore. Cross-domain comparisons still work through
   the structural fallback in [equal]/[compare]. *)
let table : t Intern.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Intern.create 1024)

let rec lookup tbl h i segs =
  let i = Intern.candidate tbl h i in
  if i < 0 then None
  else
    match Intern.get tbl i with
    | Some p as hit when segs_equal p.segs segs -> hit
    | Some _ | None -> lookup tbl h (Intern.next tbl i) segs

(* A hit returns the node in the table; only a miss builds one. *)
let intern segs =
  let h = hash_segs segs in
  let tbl = Domain.DLS.get table in
  match lookup tbl h (Intern.home tbl h) segs with
  | Some p -> p
  | None ->
    let p = { segs; len = segs_length segs; hash = h } in
    Intern.add tbl h p;
    p

let empty = intern []
let of_segments segs = intern segs
let segments t = t.segs
let of_asns = function [] -> empty | asns -> intern [ Seq asns ]
let length t = t.len
let hash t = t.hash

let prepend asn t =
  intern
    (match t.segs with
    | Seq asns :: rest -> Seq (asn :: asns) :: rest
    | segs -> Seq [ asn ] :: segs)

let prepend_confed asn t =
  intern
    (match t.segs with
    | Confed_seq asns :: rest -> Confed_seq (asn :: asns) :: rest
    | segs -> Confed_seq [ asn ] :: segs)

let strip_confed t =
  intern
    (List.filter
       (function Confed_seq _ | Confed_set _ -> false | Seq _ | Set _ -> true)
       t.segs)

let confed_contains asn t =
  List.exists
    (function
      | Confed_seq asns | Confed_set asns -> List.exists (Asn.equal asn) asns
      | Seq _ | Set _ -> false)
    t.segs

let contains asn t =
  let in_seg = function
    | Seq asns | Set asns | Confed_seq asns | Confed_set asns ->
      List.exists (Asn.equal asn) asns
  in
  List.exists in_seg t.segs

let strip_confed_segs t =
  List.filter
    (function Confed_seq _ | Confed_set _ -> false | Seq _ | Set _ -> true)
    t.segs

let first_as t =
  match strip_confed_segs t with Seq (a :: _) :: _ -> Some a | _ -> None

let origin_as t =
  let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl in
  match last (strip_confed_segs t) with
  | Some (Seq asns) -> last asns
  | Some (Set _ | Confed_seq _ | Confed_set _) | None -> None

let seg_rank = function Seq _ -> 0 | Set _ -> 1 | Confed_seq _ -> 2 | Confed_set _ -> 3

let seg_compare a b =
  match (a, b) with
  | Seq x, Seq y | Set x, Set y | Confed_seq x, Confed_seq y
  | Confed_set x, Confed_set y ->
    List.compare Asn.compare x y
  | _, _ -> Int.compare (seg_rank a) (seg_rank b)

let compare a b = if a == b then 0 else List.compare seg_compare a.segs b.segs
let equal a b = a == b || (a.hash = b.hash && segs_equal a.segs b.segs)

let to_string t =
  let seg_str = function
    | Seq asns -> String.concat " " (List.map Asn.to_string asns)
    | Set asns -> "{" ^ String.concat "," (List.map Asn.to_string asns) ^ "}"
    | Confed_seq asns ->
      "(" ^ String.concat " " (List.map Asn.to_string asns) ^ ")"
    | Confed_set asns ->
      "[" ^ String.concat "," (List.map Asn.to_string asns) ^ "]"
  in
  String.concat " " (List.map seg_str t.segs)

let pp fmt t = Format.pp_print_string fmt (to_string t)
