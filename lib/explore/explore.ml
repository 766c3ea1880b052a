open Netaddr
module N = Abrr_core.Network
module Router = Abrr_core.Router
module Outbox = Abrr_core.Outbox
module Sim = Eventsim.Sim
module Time = Eventsim.Time

type mode = Async | Timed
type fault = Fail of int | Recover of int
type choice = Fire of int | Inject of fault

type limits = { max_depth : int; max_states : int; max_faults : int }

let default_limits = { max_depth = 20_000; max_states = 200_000; max_faults = 0 }

type stats = {
  mutable states : int;
  mutable transitions : int;
  mutable terminals : int;
  mutable pruned_visited : int;
  mutable pruned_sleep : int;
  mutable max_depth_seen : int;
  mutable truncated : int;
}

type violation =
  | Dispute_cycle of { stem : int; period : int }
  | Invariant_violation of string
  | Forwarding_loop of { prefix : Prefix.t; cycle : int list }
  | Exit_mismatch of {
      prefix : Prefix.t;
      router : int;
      got : int option;
      reference : int option;
    }
  | Divergent_terminals of { other : string }

type counterexample = {
  violation : violation;
  schedule : choice list;
  state_digest : string;
  snap_digest : string option;
}

type verdict =
  | Safe of { complete : bool; terminal : string option }
  | Unsafe of counterexample

type result = { verdict : verdict; stats : stats }

type scenario = {
  fresh : unit -> N.t;
  prefixes : Prefix.t list;
  reference : (Prefix.t * int option array) list;
}

let scenario_of_gadget ?(check_exits = true) (g : Abrr_core.Gadgets.t) =
  let reference =
    if not check_exits then []
    else
      let dist = Igp.Spf.all_pairs g.config.Abrr_core.Config.igp in
      [
        ( g.prefix,
          Verify.Deflection.full_mesh_exits g.config ~dist ~prefix:g.prefix
            g.injections );
      ]
  in
  {
    fresh = (fun () -> Abrr_core.Gadgets.build g);
    prefixes = [ g.prefix ];
    reference;
  }

(* ------------------------------------------------------------------ *)
(* Canonical state digests                                             *)

(* Exact modulo provably dead values: see the .mli soundness notes.
   [mrai_off] additionally lets quiesced session scaffolding vanish —
   with MRAI disabled, [send] never consults [mrai_until], so an empty
   session is behaviorally identical to an absent one (and the ghost-
   entry class of divergence disappears from the digest). *)
let norm_router mrai_off (st : Router.state) =
  (* Inbox order across sources is dead state: [process_now] drains the
     whole inbox into per-source tables before recomputing any decision,
     and inputs from different sources write disjoint entries (eBGP /
     local inputs write yet other RIBs), so only same-class relative
     order can matter. Stable-sorting by class merges batch-composition
     permutations that provably converge to the same processed state. *)
  let inbox_class = function
    | Router.In_items { src; _ } -> (0, src)
    | Router.In_ebgp _ | Router.In_ebgp_withdraw _ | Router.In_local _
    | Router.In_local_withdraw _ | Router.In_redecide_all ->
      (1, 0)
  in
  let inbox =
    List.stable_sort
      (fun a b -> Stdlib.compare (inbox_class a) (inbox_class b))
      st.Router.st_inbox
  in
  let sessions =
    List.filter_map
      (fun (ss : Outbox.session_state) ->
        let ss =
          if mrai_off then { ss with Outbox.ss_mrai_until = Time.zero } else ss
        in
        if mrai_off && ss.Outbox.ss_pending = [] && not ss.Outbox.ss_flush_scheduled
        then None
        else Some ss)
      st.Router.st_sessions
  in
  {
    st with
    Router.st_inbox = inbox;
    st_sessions = sessions;
    st_counters = Abrr_core.Counters.create ();
    st_rejected_loops = 0;
  }

let norm_event mode clock (ev : N.payload Sim.event) =
  (match ev.Sim.payload with
  | N.Thunk _ ->
    invalid_arg "Explore: pending Thunk event cannot be digested (use at_op)"
  | _ -> ());
  let time =
    match mode with
    | Async -> Time.zero
    | Timed -> max Time.zero (ev.Sim.time - clock)
  in
  (* seq dropped: events are renumbered by canonical position *)
  (time, ev.Sim.kind, ev.Sim.actor, ev.Sim.detail, ev.Sim.payload)

let norm_dump mode net =
  let d = N.dump net in
  let cfg = N.config net in
  let mrai_off = cfg.Abrr_core.Config.mrai = Time.zero in
  let events =
    List.map (norm_event mode d.N.d_sim.N.d_clock) d.N.d_sim.N.d_events
    |> List.sort Stdlib.compare
  in
  (events, Array.map (norm_router mrai_off) d.N.d_routers)

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let state_digest ~mode net = digest_of (norm_dump mode net)

(* Terminal comparison abstracts path-id assignment (allocation order is
   schedule history, not routing outcome) and RIB insertion order. Safe
   only at quiescence: with no pending withdrawals or in-flight
   messages, no dangling id reference can distinguish the states. *)
let scrub_rib_dump (rd : Router.rib_dump) =
  List.map
    (fun (p, rs) ->
      ( p,
        List.sort Bgp.Route.compare (List.map (Bgp.Route.with_path_id 0) rs) ))
    rd

let terminal_digest net =
  let events, routers = norm_dump Async net in
  let routers =
    Array.map
      (fun (st : Router.state) ->
        {
          st with
          Router.st_ribs = Array.map scrub_rib_dump st.Router.st_ribs;
          st_peer_tables =
            Array.map
              (List.map (fun (src, rd) -> (src, scrub_rib_dump rd)))
              st.Router.st_peer_tables;
          st_path_ids = [||];
          st_sessions =
            List.filter_map
              (fun (ss : Outbox.session_state) ->
                if ss.Outbox.ss_pending = [] && not ss.Outbox.ss_flush_scheduled
                then None
                else Some { ss with Outbox.ss_mrai_until = Time.zero })
              st.Router.st_sessions;
        })
      routers
  in
  digest_of (events, routers)

(* ------------------------------------------------------------------ *)
(* Schedule execution                                                  *)

(* Events are only reorderable up to per-channel FIFO: iBGP messages on
   one (src, dst) session ride an ordered transport, and session
   teardown/re-establishment for one (router, peer) pair must keep its
   issue order — firing a Deliver ahead of an earlier Deliver on the
   same session would model a state real BGP cannot reach. Events on
   distinct channels carry no such constraint. *)
type channel =
  | Ch_deliver of int * int
  | Ch_proc of int
  | Ch_mrai of int * int
  | Ch_session of int * int
  | Ch_external

let channel_of = function
  | N.Deliver { src; dst; _ } -> Ch_deliver (src, dst)
  | N.Process i -> Ch_proc i
  | N.Mrai_flush { router; peer } -> Ch_mrai (router, peer)
  | N.Purge { router; peer } | N.Establish { router; peer } ->
    Ch_session (router, peer)
  | N.Op _ | N.Thunk _ -> Ch_external

(* Keep only each channel's head (lowest seq = issue order). The input
   is (time, seq)-sorted; at equal times seq is send order, and an
   async-mode reordering never lets a later seq on the same channel
   overtake an earlier one. *)
let channel_heads evs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (e : _ Sim.event) ->
      let ch = channel_of e.Sim.payload in
      let head =
        match Hashtbl.find_opt seen ch with
        | Some s -> s > e.Sim.seq
        | None -> true
      in
      if head then Hashtbl.replace seen ch e.Sim.seq;
      head)
    (List.sort (fun (a : _ Sim.event) b -> Int.compare a.Sim.seq b.Sim.seq) evs)
  |> List.sort Sim.(fun a b -> Stdlib.compare (a.time, a.seq) (b.time, b.seq))

let ready ~mode net =
  let evs = Sim.pending_events (N.sim net) in
  let evs =
    match mode with
    | Async -> evs
    | Timed -> (
      match evs with
      | [] -> []
      | first :: _ ->
        List.filter (fun (e : _ Sim.event) -> e.Sim.time = first.Sim.time) evs)
  in
  channel_heads evs

let apply net = function
  | Fire seq -> ignore (Sim.fire (N.sim net) ~seq)
  | Inject (Fail r) -> N.fail net ~router:r
  | Inject (Recover r) -> N.recover net ~router:r

let replay net choices = List.iter (apply net) choices

let random_run ?(mode = Async) ?(max_steps = 100_000) ~seed net =
  let prng = Eventsim.Prng.create seed in
  let rec go steps =
    if steps >= max_steps then
      Error
        (Printf.sprintf "random schedule did not quiesce within %d steps"
           max_steps)
    else
      match ready ~mode net with
      | [] -> Ok steps
      | evs ->
        let ev = List.nth evs (Eventsim.Prng.int prng (List.length evs)) in
        apply net (Fire ev.Sim.seq);
        go (steps + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Partial-order reduction                                             *)

(* Write footprint of a payload's execution. Message sends only append
   to the event queue, which the digest treats as a set, so they do not
   make two events at distinct routers interfere. *)
let footprint = function
  | N.Deliver { dst; _ } -> Some dst
  | N.Process i -> Some i
  | N.Mrai_flush { router; _ } | N.Purge { router; _ }
  | N.Establish { router; _ } ->
    Some router
  | N.Op _ | N.Thunk _ -> None (* global: dependent with everything *)

let independent a b =
  match (footprint a, footprint b) with
  | Some x, Some y -> x <> y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The search                                                          *)

let explore ?(mode = Async) ?(por = true) ?(invariants = true)
    ?(limits = default_limits) sc =
  let net = sc.fresh () in
  let sim = N.sim net in
  let stats =
    {
      states = 0;
      transitions = 0;
      terminals = 0;
      pruned_visited = 0;
      pruned_sleep = 0;
      max_depth_seen = 0;
      truncated = 0;
    }
  in
  (* digest -> (fewest faults used on any visit, sleep set stored then).
     A revisit is pruned only when the stored visit had at least as much
     remaining fault budget and slept a subset of what we would sleep —
     otherwise it is re-explored with the intersected sleep set. *)
  let visited : (string, int * N.payload list) Hashtbl.t =
    Hashtbl.create 4096
  in
  (* states on the current DFS stack: "digest:faults_used" -> depth.
     Faults are part of the key so a loop closed through a fault
     injection (not repeatable under a finite fault budget) is never
     reported as a protocol dispute cycle. *)
  let path : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let schedule = ref [] in
  let terminal = ref None in
  let exception Found of counterexample in
  let exception Budget_exhausted in
  let mk_ce violation =
    let snap_digest =
      match Snapshot.digest net with Ok d -> Some d | Error _ -> None
    in
    {
      violation;
      schedule = List.rev !schedule;
      state_digest = state_digest ~mode net;
      snap_digest;
    }
  in
  let check_invariants () =
    if invariants then
      try Verify.Invariant.check_now net
      with Verify.Invariant.Violation msg ->
        raise (Found (mk_ce (Invariant_violation msg)))
  in
  let check_terminal faults_used =
    stats.terminals <- stats.terminals + 1;
    for i = 0 to N.router_count net - 1 do
      let r = N.router net i in
      if Router.is_up r && not (Router.idle r) then
        raise
          (Found
             (mk_ce
                (Invariant_violation
                   (Printf.sprintf
                      "router %d is quiescent with unprocessed input" i))))
    done;
    List.iter
      (fun p ->
        match Abrr_core.Anomaly.forwarding_loops net p with
        | [] -> ()
        | cycle :: _ -> raise (Found (mk_ce (Forwarding_loop { prefix = p; cycle }))))
      sc.prefixes;
    (* Exit-reference agreement and terminal uniqueness only make sense
       on fault-free schedules: a crashed (or crashed-and-cold-restarted)
       router legitimately ends elsewhere. *)
    if faults_used = 0 then begin
      (* The exit router of [router]'s best path: where its next_hop
         loopback lives, or the router itself when the next hop is an
         external (eBGP) address — matching the static reference's
         notion of egress. *)
      let live_exit router p =
        match N.best net ~router p with
        | None -> None
        | Some r -> (
          match
            Abrr_core.Config.router_of_loopback (N.config net)
              (Bgp.Route.next_hop r)
          with
          | Some x -> Some x
          | None -> Some router)
      in
      List.iter
        (fun (p, reference) ->
          Array.iteri
            (fun router expected ->
              let got = live_exit router p in
              if got <> expected then
                raise
                  (Found
                     (mk_ce
                        (Exit_mismatch { prefix = p; router; got; reference = expected }))))
            reference)
        sc.reference;
      let td = terminal_digest net in
      match !terminal with
      | None -> terminal := Some td
      | Some other when other <> td ->
        raise (Found (mk_ce (Divergent_terminals { other })))
      | Some _ -> ()
    end
  in
  let subset small big =
    List.for_all (fun p -> List.exists (fun q -> p = q) big) small
  in
  let inter xs ys = List.filter (fun p -> List.exists (fun q -> p = q) ys) xs in
  let fault_choices faults_used =
    if faults_used >= limits.max_faults then []
    else
      List.init (N.router_count net) (fun r ->
          if Router.is_up (N.router net r) then Fail r else Recover r)
  in
  let rec dfs depth faults_used sleep =
    if depth > stats.max_depth_seen then stats.max_depth_seen <- depth;
    let d = state_digest ~mode net in
    let path_key = d ^ ":" ^ string_of_int faults_used in
    (match Hashtbl.find_opt path path_key with
    | Some stem ->
      raise (Found (mk_ce (Dispute_cycle { stem; period = depth - stem })))
    | None -> ());
    let prior = Hashtbl.find_opt visited d in
    match prior with
    | Some (fu, stored) when fu <= faults_used && (not por || subset stored sleep)
      ->
      stats.pruned_visited <- stats.pruned_visited + 1
    | _ ->
      let sleep =
        if not por then []
        else
          match prior with
          | Some (fu, stored) when fu <= faults_used -> inter stored sleep
          | _ -> sleep
      in
      Hashtbl.replace visited d
        ((match prior with Some (fu, _) -> min fu faults_used | None -> faults_used), sleep);
      if prior = None then begin
        stats.states <- stats.states + 1;
        if stats.states > limits.max_states then raise Budget_exhausted;
        check_invariants ()
      end;
      let evs = ready ~mode net in
      let faults = fault_choices faults_used in
      if evs = [] then check_terminal faults_used;
      let budgeted = depth < limits.max_depth in
      if (not budgeted) && (evs <> [] || faults <> []) then
        stats.truncated <- stats.truncated + 1
      else if evs <> [] || faults <> [] then begin
        Hashtbl.replace path path_key depth;
        let saved = N.dump net in
        let slept = ref sleep in
        List.iter
          (fun (ev : _ Sim.event) ->
            if por && List.exists (fun p -> p = ev.Sim.payload) !slept then
              stats.pruned_sleep <- stats.pruned_sleep + 1
            else begin
              schedule := Fire ev.Sim.seq :: !schedule;
              ignore (Sim.fire sim ~seq:ev.Sim.seq);
              stats.transitions <- stats.transitions + 1;
              let child_sleep =
                if por then List.filter (fun p -> independent p ev.Sim.payload) !slept
                else []
              in
              dfs (depth + 1) faults_used child_sleep;
              N.load net saved;
              schedule := List.tl !schedule;
              slept := ev.Sim.payload :: !slept
            end)
          evs;
        List.iter
          (fun f ->
            schedule := Inject f :: !schedule;
            apply net (Inject f);
            stats.transitions <- stats.transitions + 1;
            dfs (depth + 1) (faults_used + 1) [];
            N.load net saved;
            schedule := List.tl !schedule)
          faults;
        Hashtbl.remove path path_key
      end
  in
  let verdict =
    try
      dfs 0 0 [];
      Safe
        {
          complete = stats.truncated = 0;
          terminal = (if limits.max_faults = 0 then !terminal else None);
        }
    with
    | Found ce -> Unsafe ce
    | Budget_exhausted ->
      Safe { complete = false; terminal = None }
  in
  { verdict; stats }

let verify_counterexample sc ~mode ce =
  let net = sc.fresh () in
  match replay net ce.schedule with
  | exception e -> Error ("replay failed: " ^ Printexc.to_string e)
  | () -> (
    let d = state_digest ~mode net in
    if d <> ce.state_digest then
      Error
        (Printf.sprintf "state digest mismatch: replay reached %s, recorded %s"
           d ce.state_digest)
    else
      match ce.snap_digest with
      | None -> Ok ()
      | Some recorded -> (
        match Snapshot.digest net with
        | Ok got when got = recorded -> Ok ()
        | Ok got ->
          Error
            (Printf.sprintf
               "snapshot digest mismatch: replay reached %s, recorded %s" got
               recorded)
        | Error e -> Error ("snapshot digest failed on replay: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Rendering and counterexample files                                  *)

let opt_int = function None -> "-" | Some i -> string_of_int i

let pp_violation fmt = function
  | Dispute_cycle { stem; period } ->
    Format.fprintf fmt
      "dispute cycle: state at choice %d revisited after %d more choices"
      stem period
  | Invariant_violation msg -> Format.fprintf fmt "invariant violation: %s" msg
  | Forwarding_loop { prefix; cycle } ->
    Format.fprintf fmt "forwarding loop for %s: %s" (Prefix.to_string prefix)
      (String.concat " -> " (List.map string_of_int cycle))
  | Exit_mismatch { prefix; router; got; reference } ->
    Format.fprintf fmt
      "exit mismatch for %s at router %d: picked %s, full-mesh reference %s"
      (Prefix.to_string prefix) router (opt_int got) (opt_int reference)
  | Divergent_terminals { other } ->
    Format.fprintf fmt
      "schedule-dependent outcome: terminal state differs from earlier \
       terminal %s"
      other

let pp_stats fmt s =
  Format.fprintf fmt
    "states %d, transitions %d, terminals %d, revisits pruned %d, sleep-set \
     prunes %d, max depth %d, truncated %d"
    s.states s.transitions s.terminals s.pruned_visited s.pruned_sleep
    s.max_depth_seen s.truncated

module Ce = struct
  type nonrec t = { meta : (string * string) list; ce : counterexample }

  let escape s =
    String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

  let violation_line = function
    | Dispute_cycle { stem; period } ->
      Printf.sprintf "dispute-cycle %d %d" stem period
    | Invariant_violation msg -> "invariant " ^ escape msg
    | Forwarding_loop { prefix; cycle } ->
      Printf.sprintf "fwd-loop %s %s" (Prefix.to_string prefix)
        (String.concat "," (List.map string_of_int cycle))
    | Exit_mismatch { prefix; router; got; reference } ->
      Printf.sprintf "exit-mismatch %s %d %s %s" (Prefix.to_string prefix)
        router (opt_int got) (opt_int reference)
    | Divergent_terminals { other } -> "divergent-terminals " ^ other

  let to_string t =
    let b = Buffer.create 1024 in
    Buffer.add_string b "ABRR-CE 1\n";
    List.iter
      (fun (k, v) -> Printf.bprintf b "meta %s %s\n" (escape k) (escape v))
      t.meta;
    Printf.bprintf b "violation %s\n" (violation_line t.ce.violation);
    Printf.bprintf b "state-digest %s\n" t.ce.state_digest;
    Printf.bprintf b "snap-digest %s\n"
      (match t.ce.snap_digest with None -> "-" | Some d -> d);
    Printf.bprintf b "choices %d\n" (List.length t.ce.schedule);
    List.iter
      (function
        | Fire seq -> Printf.bprintf b "fire %d\n" seq
        | Inject (Fail r) -> Printf.bprintf b "fail %d\n" r
        | Inject (Recover r) -> Printf.bprintf b "recover %d\n" r)
      t.ce.schedule;
    Buffer.contents b

  let parse_opt_int = function
    | "-" -> Some None
    | s -> Option.map (fun i -> Some i) (int_of_string_opt s)

  let parse_violation rest =
    let words = String.split_on_char ' ' rest in
    match words with
    | "dispute-cycle" :: stem :: period :: [] -> (
      match (int_of_string_opt stem, int_of_string_opt period) with
      | Some stem, Some period -> Ok (Dispute_cycle { stem; period })
      | _ -> Error "bad dispute-cycle fields")
    | "invariant" :: msg_words ->
      Ok (Invariant_violation (String.concat " " msg_words))
    | [ "fwd-loop"; p; cycle ] -> (
      match Prefix.of_string_opt p with
      | None -> Error "bad fwd-loop prefix"
      | Some prefix -> (
        let hops =
          List.map int_of_string_opt (String.split_on_char ',' cycle)
        in
        if List.exists Option.is_none hops then Error "bad fwd-loop cycle"
        else Ok (Forwarding_loop { prefix; cycle = List.filter_map Fun.id hops })))
    | [ "exit-mismatch"; p; router; got; reference ] -> (
      match
        ( Prefix.of_string_opt p,
          int_of_string_opt router,
          parse_opt_int got,
          parse_opt_int reference )
      with
      | Some prefix, Some router, Some got, Some reference ->
        Ok (Exit_mismatch { prefix; router; got; reference })
      | _ -> Error "bad exit-mismatch fields")
    | [ "divergent-terminals"; other ] -> Ok (Divergent_terminals { other })
    | _ -> Error "unknown violation kind"

  let of_string s =
    let lines =
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.trim l <> "")
    in
    let split2 l =
      match String.index_opt l ' ' with
      | None -> (l, "")
      | Some i ->
        (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
    in
    match lines with
    | magic :: rest when String.trim magic = "ABRR-CE 1" -> (
      let meta = ref [] in
      let violation = ref None in
      let state_digest = ref None in
      let snap_digest = ref None in
      let declared = ref None in
      let choices = ref [] in
      let err = ref None in
      List.iter
        (fun line ->
          if !err = None then
            let key, rest = split2 (String.trim line) in
            match key with
            | "meta" ->
              let k, v = split2 rest in
              meta := (k, v) :: !meta
            | "violation" -> (
              match parse_violation rest with
              | Ok v -> violation := Some v
              | Error e -> err := Some e)
            | "state-digest" -> state_digest := Some rest
            | "snap-digest" ->
              snap_digest := Some (if rest = "-" then None else Some rest)
            | "choices" -> declared := int_of_string_opt rest
            | "fire" -> (
              match int_of_string_opt rest with
              | Some seq -> choices := Fire seq :: !choices
              | None -> err := Some "bad fire seq")
            | "fail" -> (
              match int_of_string_opt rest with
              | Some r -> choices := Inject (Fail r) :: !choices
              | None -> err := Some "bad fail router")
            | "recover" -> (
              match int_of_string_opt rest with
              | Some r -> choices := Inject (Recover r) :: !choices
              | None -> err := Some "bad recover router")
            | other -> err := Some ("unknown line: " ^ other))
        rest;
      match (!err, !violation, !state_digest, !snap_digest, !declared) with
      | Some e, _, _, _, _ -> Error ("counterexample parse: " ^ e)
      | None, Some violation, Some state_digest, Some snap_digest, Some n ->
        let schedule = List.rev !choices in
        if List.length schedule <> n then
          Error "counterexample parse: choice count mismatch"
        else
          Ok
            {
              meta = List.rev !meta;
              ce = { violation; schedule; state_digest; snap_digest };
            }
      | None, _, _, _, _ -> Error "counterexample parse: missing fields")
    | _ -> Error "counterexample parse: bad magic"

  let save t ~path =
    try
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      output_string oc (to_string t);
      close_out oc;
      Sys.rename tmp path;
      Ok ()
    with Sys_error e -> Error e

  let load ~path =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s
    with Sys_error e -> Error e
end
