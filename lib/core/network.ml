open Netaddr
open Eventsim

type op =
  | Inject of { router : int; neighbor : Ipv4.t; route : Bgp.Route.t }
  | Withdraw of {
      router : int;
      neighbor : Ipv4.t;
      prefix : Prefix.t;
      path_id : int;
    }
  | Originate of { router : int; route : Bgp.Route.t }
  | Withdraw_local of { router : int; prefix : Prefix.t; path_id : int }
  | Fail of int
  | Recover of int

type payload =
  | Deliver of {
      src : int;
      dst : int;
      bytes : int;
      msgs : int;
      items : Proto.item list;
    }
  | Process of int
  | Mrai_flush of { router : int; peer : int }
  | Purge of { router : int; peer : int }
  | Establish of { router : int; peer : int }
  | Op of op
  | Thunk of (unit -> unit)

(* Scheduling indirection: every event a router (or fail/recover)
   schedules goes through the network's current [sched], carrying the
   *originating* router [src]. Serial execution points this at the one
   simulator; {!Sharded.run} swaps in a scheduler that routes by shard
   for the duration of the run. *)
type sched = {
  sc_now : int -> Time.t;
  sc_schedule :
    src:int -> kind:int -> actor:int -> detail:int -> delay:Time.t ->
    payload -> unit;
  sc_best_change : int -> Prefix.t -> Bgp.Route.t option -> unit;
}

type shard_plan = {
  shards : int;
  shard_of : int array;
  lookahead : Time.t;
}

type t = {
  config : Config.t;
  sim : payload Sim.t;
  mutable routers : Router.t array;
  mutable dist : Igp.Spf.table;  (* shared with every network over the graph *)
  mutable dist_gen : int;  (* [Igp.Graph.generation] [dist] was computed at *)
  mutable plan : (int * (shard_plan, string) result) option;
      (* [Sharded.run]'s plan for one [jobs] value; dropped on repartition *)
  mutable hooks : (int -> Prefix.t -> Bgp.Route.t option -> unit) list;
  mutable best_changes : int;
  mutable sched : sched;
}

(* Event kinds recorded by the trace sink (Sim.Trace): which of the
   three scheduling paths produced an event. *)
let trace_kind_deliver = 1
let trace_kind_timer = 2
let trace_kind_external = 3

let trace_kind_name = function
  | 1 -> "deliver"
  | 2 -> "timer"
  | 3 -> "external"
  | 0 -> "unknown"
  | k -> Printf.sprintf "kind-%d" k

let router t i =
  if i < 0 || i >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Network.router: %d out of range" i);
  t.routers.(i)

let inject t ~router:i ~neighbor route = Router.inject_ebgp (router t i) ~neighbor route

let withdraw t ~router:i ~neighbor prefix ~path_id =
  Router.withdraw_ebgp (router t i) ~neighbor prefix ~path_id

let originate t ~router:i route = Router.originate (router t i) route

let hold_time = Time.sec 3

let fail t ~router:i =
  let failed = router t i in
  Router.set_down failed;
  (* Peers notice when the hold timer expires and purge the session.
     Scheduled through [sched] with [src = i]: under sharded execution
     these are cross-shard events originating at the failed router, and
     [hold_time] bounds the engine lookahead so they land past the safe
     horizon. *)
  Array.iteri
    (fun j _ ->
      if j <> i then
        t.sched.sc_schedule ~src:i ~kind:trace_kind_timer ~actor:j ~detail:0
          ~delay:hold_time
          (Purge { router = j; peer = i }))
    t.routers

let recover t ~router:i =
  let recovered = router t i in
  Router.set_up_cold recovered;
  (* Sessions re-establish; each peer replays its Adj-RIB-Out. *)
  Array.iteri
    (fun j _ ->
      if j <> i then
        t.sched.sc_schedule ~src:i ~kind:trace_kind_timer ~actor:j ~detail:0
          ~delay:hold_time
          (Establish { router = j; peer = i }))
    t.routers

let run_op t = function
  | Inject { router; neighbor; route } -> inject t ~router ~neighbor route
  | Withdraw { router; neighbor; prefix; path_id } ->
    withdraw t ~router ~neighbor prefix ~path_id
  | Originate { router; route } -> originate t ~router route
  | Withdraw_local { router = i; prefix; path_id } ->
    Router.withdraw_local (router t i) prefix ~path_id
  | Fail i -> fail t ~router:i
  | Recover i -> recover t ~router:i

let exec_payload t = function
  | Deliver { src; dst; bytes; msgs; items } ->
    Router.receive t.routers.(dst) ~src ~items ~bytes ~msgs
  | Process i -> Router.process_now t.routers.(i)
  | Mrai_flush { router = i; peer } -> Router.flush_peer t.routers.(i) ~peer
  | Purge { router = i; peer } -> Router.purge_peer t.routers.(i) ~peer
  | Establish { router = i; peer } ->
    let r = t.routers.(i) in
    if Router.is_up r then Router.refresh_to r ~peer
  | Op op -> run_op t op
  | Thunk f -> f ()

let create ?(seed = 42) config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Network.create: " ^ msg));
  let sim = Sim.create_reified ~seed () in
  (* [rec]: the serial scheduler closures reference the network they
     schedule into. *)
  let rec t =
    {
      config;
      sim;
      routers = [||];
      dist_gen = Igp.Graph.generation config.Config.igp;
      dist = Igp.Spf.table config.Config.igp;
      plan = None;
      hooks = [];
      best_changes = 0;
      sched =
        {
          sc_now = (fun _ -> Sim.now sim);
          sc_schedule =
            (fun ~src:_ ~kind ~actor ~detail ~delay p ->
              Sim.push sim ~kind ~actor ~detail ~time:(Sim.now sim + delay) p);
          sc_best_change =
            (fun i prefix route ->
              t.best_changes <- t.best_changes + 1;
              List.iter (fun hook -> hook i prefix route) t.hooks);
        };
    }
  in
  let make_router i =
    let env =
      {
        Router.id = i;
        config;
        now = (fun () -> t.sched.sc_now i);
        schedule_process =
          (fun delay ->
            t.sched.sc_schedule ~src:i ~kind:trace_kind_timer ~actor:i
              ~detail:0 ~delay (Process i));
        schedule_flush =
          (fun ~peer delay ->
            t.sched.sc_schedule ~src:i ~kind:trace_kind_timer ~actor:i
              ~detail:0 ~delay
              (Mrai_flush { router = i; peer }));
        transmit =
          (fun ~dst ~bytes ~msgs items ->
            let delay =
              if dst = i then Time.zero else config.Config.link_delay i dst
            in
            t.sched.sc_schedule ~src:i ~kind:trace_kind_deliver ~actor:dst
              ~detail:(List.length items) ~delay
              (Deliver { src = i; dst; bytes; msgs; items }));
        igp_cost =
          (fun next_hop ->
            let j = Config.loopback_index config next_hop in
            if j < 0 then 0 else Igp.Spf.cost t.dist ~src:i ~dst:j);
        igp_cost_from =
          (fun ~src next_hop ->
            let j = Config.loopback_index config next_hop in
            if j < 0 then 0 else Igp.Spf.cost t.dist ~src ~dst:j);
        on_best_change = (fun prefix route -> t.sched.sc_best_change i prefix route);
      }
    in
    Router.create env
  in
  t.routers <- Array.init config.Config.n_routers make_router;
  Sim.set_exec sim (exec_payload t);
  t

let config t = t.config
let sim t = t.sim
let router_count t = Array.length t.routers
let run ?until ?max_events t = Sim.run ?until ?max_events t.sim

let at t time action =
  Sim.schedule_at t.sim ~kind:trace_kind_external ~time (Thunk action)

let at_op t time op = Sim.schedule_at t.sim ~kind:trace_kind_external ~time (Op op)
let best t ~router:i p = Router.best (router t i) p
let lookup t ~router:i addr = Router.lookup (router t i) addr
let best_exit t ~router:i p = Router.best_exit (router t i) p
let counters t i = Router.counters (router t i)

let total_counters t =
  let acc = Counters.create () in
  Array.iter (fun r -> Counters.add acc (Router.counters r)) t.routers;
  acc

let last_change t =
  Array.fold_left
    (fun acc r -> max acc (Router.counters r).Counters.last_change)
    Time.zero t.routers

let on_best_change t hook = t.hooks <- t.hooks @ [ hook ]
let best_changes t = t.best_changes
let igp_distance t i j = Igp.Spf.cost t.dist ~src:i ~dst:j

let recompute_dist t =
  let igp = t.config.Config.igp in
  t.dist_gen <- Igp.Graph.generation igp;
  t.dist <- Igp.Spf.table igp

let refresh_igp t =
  recompute_dist t;
  Array.iter Router.redecide_all t.routers

let dual_accept t =
  match t.config.Config.scheme with
  | Config.Dual { accept; _ } -> accept
  | Config.Full_mesh | Config.Tbrr _ | Config.Abrr _ | Config.Confed _
  | Config.Rcp _ ->
    invalid_arg "Network: acceptance switch requires the Dual scheme"

let acceptance t ap = (dual_accept t).(ap)

let set_acceptance t ~ap mode =
  let accept = dual_accept t in
  if ap < 0 || ap >= Array.length accept then
    invalid_arg "Network.set_acceptance: AP out of range";
  if accept.(ap) <> mode then begin
    accept.(ap) <- mode;
    Array.iter Router.redecide_all t.routers
  end

let repartition t ~partition ~arrs =
  match t.config.Config.scheme with
  | Config.Abrr spec ->
    if Array.length arrs <> Partition.count partition then
      invalid_arg
        "Network.repartition: arrs array length does not match partition size";
    Array.iter
      (fun l ->
        if l = [] then invalid_arg "Network.repartition: AP without ARRs";
        List.iter
          (fun i ->
            if i < 0 || i >= Array.length t.routers then
              invalid_arg "Network.repartition: ARR index out of range")
          l)
      arrs;
    spec.Config.partition <- partition;
    spec.Config.arrs <- arrs;
    t.plan <- None;
    Array.iter Router.apply_repartition t.routers
  | Config.Full_mesh | Config.Tbrr _ | Config.Confed _ | Config.Rcp _
  | Config.Dual _ ->
    invalid_arg "Network.repartition: scheme is not ABRR"

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)

let restore_sim t ~clock ~next_seq ~processed ~rng ~best_changes ~sink events =
  t.best_changes <- best_changes;
  (* SPF distances come from the caller-rebuilt config rather than the
     checkpoint; a run that edits the IGP graph mid-flight must re-apply
     those edits before resuming. [create] took the graph's table
     already, so a new one is taken only if the graph changed since. *)
  if Igp.Graph.generation t.config.Config.igp <> t.dist_gen then
    recompute_dist t;
  Sim.restore t.sim ~clock ~next_seq ~processed ~rng_state:rng events;
  match sink with Some s -> Sim.set_sink t.sim s | None -> Sim.clear_sink t.sim

(* ------------------------------------------------------------------ *)
(* Sharded execution                                                   *)

(* The router whose state an event mutates — the sharding key. Total on
   reified payloads; a [Thunk] is an opaque closure with no owner. *)
let payload_owner = function
  | Deliver { dst; _ } -> dst
  | Process i -> i
  | Mrai_flush { router; _ } | Purge { router; _ } | Establish { router; _ } ->
    router
  | Op
      ( Inject { router; _ }
      | Withdraw { router; _ }
      | Originate { router; _ }
      | Withdraw_local { router; _ } ) ->
    router
  | Op (Fail i | Recover i) -> i
  | Thunk _ -> invalid_arg "Network: Thunk events cannot be sharded (use at_op)"

module Sharded = struct
  type plan = shard_plan = {
    shards : int;
    shard_of : int array;
    lookahead : Time.t;
  }

  type stats = Eventsim.Sharded.stats = {
    shards : int;
    windows : int;
    stalls : int;
    cross_events : int;
    max_window_events : int;
  }

  let plan config ~jobs =
    let n = config.Config.n_routers in
    let jobs = max 1 (min jobs n) in
    (* Contiguous ranges by default; under ABRR (and the Dual
       transition) each AP's ARR set is then colocated onto the AP's
       shard, so reflection for one address partition never crosses a
       shard boundary — the locality the scheme was designed around.
       A router serving several APs stays with the first. *)
    let shard_of = Array.init n (fun i -> i * jobs / n) in
    (match config.Config.scheme with
    | Config.Abrr spec | Config.Dual { abrr = spec; _ } ->
      let n_aps = Array.length spec.Config.arrs in
      let moved = Array.make n false in
      Array.iteri
        (fun ap routers ->
          let s = ap * jobs / n_aps in
          List.iter
            (fun r ->
              if not moved.(r) then begin
                moved.(r) <- true;
                shard_of.(r) <- s
              end)
            routers)
        spec.Config.arrs
    | Config.Full_mesh | Config.Tbrr _ | Config.Confed _ | Config.Rcp _ -> ());
    (* Lookahead: the fastest cross-shard interaction. Messages take at
       least the minimum cross-shard link delay; fail/recover schedule
       Purge/Establish on peers at [hold_time], so that caps it too. *)
    let lookahead = ref hold_time in
    let bad = ref None in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && shard_of.(i) <> shard_of.(j) then begin
          let d = config.Config.link_delay i j in
          if d <= 0 && !bad = None then bad := Some (i, j);
          if d < !lookahead then lookahead := d
        end
      done
    done;
    match !bad with
    | Some (i, j) ->
      Error
        (Printf.sprintf
           "link delay %d -> %d is not positive: zero-lookahead topologies \
            cannot be sharded"
           i j)
    | None ->
      (* One shard has no cross-shard pairs: a single window runs the
         whole schedule. *)
      if jobs = 1 then Ok { shards = 1; shard_of; lookahead = max_int }
      else Ok { shards = jobs; shard_of; lookahead = !lookahead }

  let plan_of t ~jobs =
    match t.plan with
    | Some (j, p) when j = jobs -> p
    | Some _ | None ->
      let p = plan t.config ~jobs in
      t.plan <- Some (jobs, p);
      p

  let run ?until ?max_events ?on_barrier t ~jobs =
    if t.hooks <> [] then
      invalid_arg
        "Network.Sharded.run: on_best_change hooks are incompatible with \
         sharded execution";
    match plan_of t ~jobs with
    | Error msg -> invalid_arg ("Network.Sharded.run: " ^ msg)
    | Ok { shards; shard_of; lookahead } ->
      (* Loc-RIB change counts accumulate per shard (disjoint indices,
         no contention) and merge at barriers — order-independent, so
         the merged total matches the serial count. *)
      let bc = Array.make shards 0 in
      let bc0 = t.best_changes in
      let sync_bc () =
        t.best_changes <- bc0 + Array.fold_left ( + ) 0 bc
      in
      let eng =
        Eventsim.Sharded.create ~master:t.sim ~shards ~lookahead
          ~owner:(fun p -> shard_of.(payload_owner p))
          ~exec:(fun ~shard:_ p -> exec_payload t p)
          ()
      in
      let sharded_sched =
        {
          sc_now = (fun i -> Eventsim.Sharded.now eng ~shard:shard_of.(i));
          sc_schedule =
            (fun ~src ~kind ~actor ~detail ~delay p ->
              Eventsim.Sharded.schedule eng ~shard:shard_of.(src) ~kind ~actor
                ~detail ~delay p);
          sc_best_change =
            (fun i _prefix _route ->
              let s = shard_of.(i) in
              bc.(s) <- bc.(s) + 1);
        }
      in
      let saved = t.sched in
      t.sched <- sharded_sched;
      Fun.protect
        ~finally:(fun () ->
          t.sched <- saved;
          sync_bc ();
          Eventsim.Sharded.shutdown eng)
        (fun () ->
          let on_barrier =
            Option.map
              (fun f () ->
                sync_bc ();
                f ())
              on_barrier
          in
          let outcome = Eventsim.Sharded.run ?until ?max_events ?on_barrier eng in
          (outcome, Eventsim.Sharded.stats eng))
end
