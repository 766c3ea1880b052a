(* The benchmark's workloads and the inputs each one generates from a
   seed. The library only ever sees the generated topology, route table
   and trace; the seed itself never crosses into it. *)

module T = Topo.Isp_topo
module RG = Topo.Route_gen
module TG = Topo.Trace_gen
module Time = Eventsim.Time

type t = {
  name : string;
  pops : int;
  routers_per_pop : int;
  peer_ases : int;
  points : int;  (** peering points per peer AS *)
  prefixes : int;
  trace_events : int;  (** Trace_gen events, before grouping *)
  jobs : int;  (** 1 = serial; otherwise every phase runs [Network.Sharded] *)
  pass_s : float;  (** one pass's wall on a 2-core x86-64 host, process start included *)
  why : string;
}

(* Sizes are chosen so that one pass (setup, feed, checkpoint, trace)
   takes a few seconds on a 2-core host and peaks well below 1 GB, which
   lets a run measure enough inputs for steady medians. *)
let catalog =
  [
    {
      name = "feed-104r"; pops = 13; routers_per_pop = 8; peer_ases = 25;
      points = 8; prefixes = 300; trace_events = 300; jobs = 1; pass_s = 2.2;
      why =
        "Bulk insert into growing RIBs: full decisions, the snapshot codec \
         and memory dominate; the short trace runs on the large tables.";
    };
    {
      name = "churn-104r"; pops = 13; routers_per_pop = 8; peer_ases = 25;
      points = 8; prefixes = 200; trace_events = 1500; jobs = 1; pass_s = 2.2;
      why =
        "Replace/withdraw churn on existing state: the Delta/Noop fast \
         paths, Proto.coalesce and per-event latency dominate.";
    };
    {
      name = "paper-1008r"; pops = 42; routers_per_pop = 24; peer_ases = 15;
      points = 6; prefixes = 30; trace_events = 150; jobs = 1; pass_s = 3.7;
      why =
        "Paper-scale router count with few prefixes: SPF in \
         Network.create, event dispatch, fan-out and per-router memory \
         dominate.";
    };
    {
      name = "paper-1008r-j2"; pops = 42; routers_per_pop = 24; peer_ases = 15;
      points = 6; prefixes = 30; trace_events = 150; jobs = 2; pass_s = 5.5;
      why =
        "The paper-1008r input through Network.Sharded.run ~jobs:2, the \
         conservative-window engine, to hold against the serial run.";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) catalog

(* {1 Instances}

   With the trace model's Zipf-skewed popularity, a seed decides which
   few prefixes carry most of the trace, and per-event cost follows
   those prefixes' routes. One input is therefore a poor sample of a
   workload: across seeds, one input's per-event latency and allocation
   per update spread by 20-35 % (interquartile range over median). A
   run of seed S measures the median over [instances]
   independent inputs instead: instance j draws its topology, table and
   trace from base seed [instance_seed ~seed j], instance 0 from S
   itself. The count follows from [--seconds] alone, so the same seed
   and length give the same inputs on any host that is not slowed so
   much that the run stops early (run.ml). *)

let instances w ~seconds = max 3 (int_of_float (Float.round (seconds /. w.pass_s)))
let instance_seed ~seed j = seed + (1_000_000 * j)

(* {1 Routing events}

   Trace actions closer than [gap] belong to one routing event: one
   AS-level change reaches all its peering points within the 80 ms
   jitter, and a flap's restore comes at least 30 s after its
   withdrawal, so 5 s separates events without splitting any. *)

type event = { start : Time.t; actions : TG.event list }

let gap = Time.sec 5

let group_events (trace : TG.event list) =
  (* [cur] holds the open event's actions, newest first. *)
  let flush cur acc =
    match List.rev cur with
    | [] -> acc
    | first :: _ as actions -> { start = first.TG.time; actions } :: acc
  in
  let rec go cur last acc = function
    | [] -> List.rev (flush cur acc)
    | (e : TG.event) :: rest ->
      if cur <> [] && e.TG.time - last >= gap then
        go [ e ] e.TG.time (flush cur acc) rest
      else go (e :: cur) e.TG.time acc rest
  in
  Array.of_list (go [] 0 [] trace)

(* {1 Inputs}

   [--seed S] draws the topology from S, the route table from S + 1 and
   the trace from S + 2. The configuration, table and trace follow
   bench/exp_common.ml: ABRR with 8 APs x 2 ARRs, always-compare MED,
   150 ms processing delay with 400 ms jitter, no MRAI, and the trace
   model's default (Zipf-skewed) prefix popularity. *)
let config topo =
  T.config ~med_mode:Bgp.Decision.Always_compare ~proc_delay:(Time.ms 150)
    ~proc_jitter:(Time.ms 400)
    ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo)
    topo

let gen_topo w ~seed =
  T.generate
    (T.spec ~pops:w.pops ~routers_per_pop:w.routers_per_pop ~peer_ases:w.peer_ases
       ~peering_points_per_as:w.points ~seed ())

let gen_table w topo ~seed = RG.generate topo (RG.spec ~n_prefixes:w.prefixes ~seed ())

let gen_events w table ~seed =
  group_events
    (TG.generate table
       (TG.spec ~events:w.trace_events ~duration:(Time.days 14) ~jitter:(Time.ms 80)
          ~single_point_share:0.35 ~flap_share:0.45 ~seed ()))
