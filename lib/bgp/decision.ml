open Netaddr

type learned = Ebgp | Confed_ebgp | Ibgp | Local

type candidate = {
  route : Route.t;
  learned : learned;
  peer_id : Ipv4.t;
  peer_addr : Ipv4.t;
  igp_cost : int;
}

let candidate ?(learned = Local) ?(peer_id = Ipv4.zero) ?(peer_addr = Ipv4.zero)
    ?(igp_cost = 0) route =
  { route; learned; peer_id; peer_addr; igp_cost }

type med_mode = Always_compare | Per_neighbor_as

let med (r : Route.t) = match (Route.med r) with None -> 0 | Some m -> m

let learned_rank c =
  (* eBGP over confed-external over iBGP; locally-originated routes rank
     with eBGP *)
  match c.learned with Ebgp | Local -> 0 | Confed_ebgp -> 1 | Ibgp -> 2

let router_id c =
  match (Route.originator_id c.route) with
  | Some id -> Ipv4.to_int id
  | None -> Ipv4.to_int c.peer_id

let neighbor_as_key c =
  match Route.neighbor_as c.route with
  | None -> -1
  | Some asn -> Asn.to_int asn

(* {2 Reference implementation}

   The original chained-[List.filter] decision process, retained verbatim
   as the differential-testing oracle for the scratch-array kernel below
   (and for the step-by-step [tie_break_step] diagnostic). *)

module Naive = struct
  (* Keep the candidates minimising [f]; preserves input order. *)
  let keep_min f cands =
    match cands with
    | [] | [ _ ] -> cands
    | _ ->
      let m = List.fold_left (fun acc c -> min acc (f c)) max_int cands in
      List.filter (fun c -> f c = m) cands

  let step1 cands = keep_min (fun c -> -(Route.local_pref c.route)) cands
  let step2 cands = keep_min (fun c -> As_path.length (Route.as_path c.route)) cands
  let step3 cands = keep_min (fun c -> Origin.rank (Route.origin c.route)) cands

  let step4 ~med_mode cands =
    match med_mode with
    | Always_compare -> keep_min (fun c -> med c.route) cands
    | Per_neighbor_as ->
      (* MED only discriminates among routes from the same neighbour AS. *)
      let min_by_key = Hashtbl.create 8 in
      let note c =
        let k = neighbor_as_key c and m = med c.route in
        match Hashtbl.find_opt min_by_key k with
        | Some m' when m' <= m -> ()
        | _ -> Hashtbl.replace min_by_key k m
      in
      List.iter note cands;
      List.filter
        (fun c -> med c.route = Hashtbl.find min_by_key (neighbor_as_key c))
        cands

  let step5 cands = keep_min learned_rank cands
  let step6 cands = keep_min (fun c -> c.igp_cost) cands
  let step7 cands = keep_min router_id cands
  let step8 cands = keep_min (fun c -> Ipv4.to_int c.peer_addr) cands

  let steps_1_to_4 ~med_mode cands =
    cands |> step1 |> step2 |> step3 |> step4 ~med_mode

  let all_steps ~med_mode =
    [ step1; step2; step3; step4 ~med_mode; step5; step6; step7; step8 ]

  let final_tie_break cands =
    match cands with
    | [] -> None
    | first :: rest ->
      let better a b = if Route.compare_attrs a.route b.route <= 0 then a else b in
      Some (List.fold_left better first rest)

  let best ~med_mode cands =
    final_tie_break
      (List.fold_left (fun cs f -> f cs) cands (all_steps ~med_mode))
end

(* [neighbor_as_key] on a bare route, without [Route.neighbor_as]'s
   allocations: the first AS of the first segment left once
   confederation segments are skipped, -1 unless that is a sequence. *)
let rec first_seq_as = function
  | (As_path.Confed_seq _ | As_path.Confed_set _) :: segs -> first_seq_as segs
  | As_path.Seq (a :: _) :: _ -> Asn.to_int a
  | (As_path.Seq [] | As_path.Set _) :: _ | [] -> -1

let neighbor_as_int (r : Route.t) = first_seq_as (As_path.segments (Route.as_path r))

(* {2 Column kernel}

   One domain-local scratch holds the candidate set as columns; callers
   push candidates straight into it. A run narrows an array of live slot
   indices step by step: each filter computes one key per live slot and
   the running minimum, then compacts the indices in place, so no step
   allocates. The steps 1-4 survivors are copied aside before steps 5-8
   go on, so one run yields both. Each simulation runs inside one
   domain, so reuse is safe, and parallel bench domains each get their
   own scratch. *)

module Scratch = struct
  type t = {
    mutable n : int;  (* slots loaded; slots >= n hold stale entries *)
    mutable routes : Route.t array;
    mutable learns : learned array;
    mutable peer_ids : int array;
    mutable peer_addrs : int array;
    mutable igps : int array;
    mutable srcs : int array;
    mutable tags : int array;
    mutable live : int array;  (* slots still in the running *)
    mutable keys : int array;
    mutable meds : int array;  (* second key column for per-AS MED *)
    mutable surv : int array;  (* steps 1-4 survivors, in slot order *)
    mutable n_surv : int;
    mutable winner : int;
  }

  let key =
    Domain.DLS.new_key (fun () ->
        { n = 0; routes = [||]; learns = [||]; peer_ids = [||]; peer_addrs = [||];
          igps = [||]; srcs = [||]; tags = [||]; live = [||]; keys = [||];
          meds = [||]; surv = [||]; n_surv = 0; winner = -1 })

  let get () = Domain.DLS.get key

  let clear s =
    s.n <- 0;
    s.n_surv <- 0;
    s.winner <- -1

  let grow s (fill : Route.t) =
    let cap = max 16 (2 * Array.length s.routes) in
    let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
    s.routes <- Array.append s.routes (Array.make (cap - s.n) fill);
    s.learns <- Array.append s.learns (Array.make (cap - s.n) Local);
    s.peer_ids <- ints s.peer_ids;
    s.peer_addrs <- ints s.peer_addrs;
    s.igps <- ints s.igps;
    s.srcs <- ints s.srcs;
    s.tags <- ints s.tags;
    s.live <- ints s.live;
    s.keys <- ints s.keys;
    s.meds <- ints s.meds;
    s.surv <- ints s.surv

  let push s route learned ~peer_id ~peer_addr ~igp_cost ~src ~tag =
    let i = s.n in
    if i = Array.length s.routes then grow s route;
    s.routes.(i) <- route;
    s.learns.(i) <- learned;
    s.peer_ids.(i) <- Ipv4.to_int peer_id;
    s.peer_addrs.(i) <- Ipv4.to_int peer_addr;
    s.igps.(i) <- igp_cost;
    s.srcs.(i) <- src;
    s.tags.(i) <- tag;
    s.n <- i + 1

  (* Keep the live slots minimising [key] among the first [n]; preserves
     order, returns the new live count. *)
  let filter_min s n key =
    if n <= 1 then n
    else begin
      let live = s.live and keys = s.keys in
      let m = ref max_int in
      for i = 0 to n - 1 do
        let k = key s live.(i) in
        keys.(i) <- k;
        if k < !m then m := k
      done;
      let m = !m in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if keys.(i) = m then begin
          live.(!j) <- live.(i);
          incr j
        end
      done;
      !j
    end

  (* Per-neighbour-AS MED: keep slot [i] unless some live slot of the
     same neighbour AS has a strictly lower MED. Key columns are filled
     once; the quadratic scan runs over ints only and candidate sets are
     small (bounded by peering points per prefix). *)
  let filter_med_per_as s n =
    if n <= 1 then n
    else begin
      let live = s.live and keys = s.keys and meds = s.meds in
      for i = 0 to n - 1 do
        let r = s.routes.(live.(i)) in
        keys.(i) <- neighbor_as_int r;
        meds.(i) <- med r
      done;
      let j = ref 0 in
      for i = 0 to n - 1 do
        let keep = ref true in
        for k = 0 to n - 1 do
          if keys.(k) = keys.(i) && meds.(k) < meds.(i) then keep := false
        done;
        if !keep then begin
          live.(!j) <- live.(i);
          incr j
        end
      done;
      !j
    end

  let key_lp s i = -(Route.local_pref s.routes.(i))
  let key_path s i = As_path.length (Route.as_path s.routes.(i))
  let key_origin s i = Origin.rank (Route.origin s.routes.(i))
  let key_med s i = med s.routes.(i)

  let key_learned s i =
    match s.learns.(i) with Ebgp | Local -> 0 | Confed_ebgp -> 1 | Ibgp -> 2

  let key_igp s i = s.igps.(i)

  let key_router_id s i =
    match Route.originator_id s.routes.(i) with
    | Some id -> Ipv4.to_int id
    | None -> s.peer_ids.(i)

  let key_peer s i = s.peer_addrs.(i)

  let run ~med_mode s =
    let n = s.n in
    for i = 0 to n - 1 do
      s.live.(i) <- i
    done;
    let n = filter_min s n key_lp in
    let n = filter_min s n key_path in
    let n = filter_min s n key_origin in
    let n =
      match med_mode with
      | Always_compare -> filter_min s n key_med
      | Per_neighbor_as -> filter_med_per_as s n
    in
    Array.blit s.live 0 s.surv 0 n;
    s.n_surv <- n;
    let n = filter_min s n key_learned in
    let n = filter_min s n key_igp in
    let n = filter_min s n key_router_id in
    let n = filter_min s n key_peer in
    (* ties after step 8 break deterministically on route attributes,
       keeping the first minimum *)
    if n = 0 then s.winner <- -1
    else begin
      let w = ref s.live.(0) in
      for i = 1 to n - 1 do
        let c = s.live.(i) in
        if Route.compare_attrs s.routes.(c) s.routes.(!w) < 0 then w := c
      done;
      s.winner <- !w
    end

  let winner s = s.winner
  let survivors s = s.n_surv
  let survivor s k = s.surv.(k)
  let route s i = s.routes.(i)
  let learned s i = s.learns.(i)
  let src s i = s.srcs.(i)
  let tag s i = s.tags.(i)
end

(* {2 List entries} — load a candidate list into the columns, run the
   same kernel, and map slots back to the input's candidate values
   (physical identity preserved). *)

let rec load s = function
  | [] -> ()
  | c :: cs ->
    Scratch.push s c.route c.learned ~peer_id:c.peer_id ~peer_addr:c.peer_addr
      ~igp_cost:c.igp_cost ~src:0 ~tag:0;
    load s cs

(* The candidates at the survivor slots [k..], walking the input from
   slot [i]: survivors are in ascending slot order. *)
let rec pick_survivors s k i = function
  | [] -> []
  | c :: cs ->
    if k < Scratch.survivors s && Scratch.survivor s k = i then
      c :: pick_survivors s (k + 1) (i + 1) cs
    else pick_survivors s k (i + 1) cs

let steps_1_to_4 ~med_mode cands =
  match cands with
  | [] | [ _ ] -> cands
  | _ ->
    let s = Scratch.get () in
    Scratch.clear s;
    load s cands;
    Scratch.run ~med_mode s;
    pick_survivors s 0 0 cands

let best ~med_mode cands =
  match cands with
  | [] -> None
  | [ c ] -> Some c
  | _ ->
    let s = Scratch.get () in
    Scratch.clear s;
    load s cands;
    Scratch.run ~med_mode s;
    Some (List.nth cands (Scratch.winner s))

(* Strict loss on the route-intrinsic key prefix of the process: local
   preference, AS-path length, origin rank, and — where sound — MED.
   Under [Always_compare] MED is a global fourth key; under
   [Per_neighbor_as] it only discriminates inside one neighbour-AS group,
   so it is consulted only when both routes share the incumbent's group
   (the incumbent survived step 4, hence holds its group's MED minimum,
   and a same-group route with a strictly larger MED is eliminated there
   without affecting any other group's minimum). A [true] result means
   the challenger is eliminated in steps 1-4 of any candidate set that
   contains the incumbent, and its presence or absence leaves the
   step-1-4 survivor set unchanged — the soundness fact the incremental
   router path relies on (DESIGN.md, "Incremental decision"). *)
let intrinsic_loses ~med_mode ~(incumbent : Route.t) (r : Route.t) =
  let lp_i = Route.local_pref incumbent and lp_r = Route.local_pref r in
  if lp_r <> lp_i then lp_r < lp_i
  else
    let pl_i = As_path.length (Route.as_path incumbent)
    and pl_r = As_path.length (Route.as_path r) in
    if pl_r <> pl_i then pl_r > pl_i
    else
      let o_i = Origin.rank (Route.origin incumbent)
      and o_r = Origin.rank (Route.origin r) in
      if o_r <> o_i then o_r > o_i
      else begin
        match med_mode with
        | Always_compare -> med r > med incumbent
        | Per_neighbor_as -> (
          match (Route.neighbor_as incumbent, Route.neighbor_as r) with
          | Some a, Some b when Asn.equal a b -> med r > med incumbent
          | _ -> false)
      end

let rank ~med_mode cands =
  (* MED per-neighbour-AS comparison is not transitive, so we cannot sort
     with a comparator: extract the winner repeatedly instead. *)
  let rec go acc = function
    | [] -> List.rev acc
    | cands -> (
      match best ~med_mode cands with
      | None -> List.rev acc
      | Some w ->
        let rest = List.filter (fun c -> c != w) cands in
        go (w :: acc) rest)
  in
  go [] cands

let tie_break_step ~med_mode cands =
  match cands with
  | [] | [ _ ] -> 0
  | _ ->
    let rec go i fs cs =
      match fs with
      | [] -> 8
      | f :: fs' -> ( match f cs with [ _ ] -> i | cs' -> go (i + 1) fs' cs')
    in
    go 1 (Naive.all_steps ~med_mode) cands
