open Abrr_core
module Sim = Eventsim.Sim
module R = Bgp.Route
module C = Codec

let magic = "ABRRSNAP"

(* v2: attribute blocks are interned below the route table (each
   distinct block's path attributes are encoded exactly once; routes
   become (block id, prefix, path id) triples), the per-router seen-set
   is gone (derived on demand — Router.known_prefixes), and routers
   carry 3 best-sender tables instead of 4.
   v3: counters gain the incremental-decision outcome fields
   (decisions_full/delta/skipped). The decision engine itself is
   deliberately NOT in the config fingerprint: both engines are proven
   state-identical, so a snapshot taken under either restores under
   either.
   v4: per-router route-flap-damping state (Damping_table.entry_state list —
   empty when damping is off) and four scenario counters
   (routes_damped/hijacks_injected/takeovers/prefixes_moved_on_repartition);
   the fingerprint gains a damping on/off marker, since restoring
   damping state into a network that keeps none (or vice versa) would
   silently change behaviour.
   v5: the three write-only best-sender tables are gone (no decision
   ever read them; split horizon uses the sender at write time). *)
let format_version = 5

(* ------------------------------------------------------------------ *)
(* Config fingerprint                                                  *)

let scheme_fp = function
  | Config.Full_mesh -> "mesh"
  | Config.Tbrr s ->
    Printf.sprintf "tbrr(%d,%b,%b)"
      (List.length s.Config.clusters)
      s.Config.multipath s.Config.best_external
  | Config.Abrr s ->
    Printf.sprintf "abrr(%d,%d,%s)"
      (Partition.count s.Config.partition)
      (Array.length s.Config.arrs)
      (match s.Config.loop_prevention with
      | Config.Reflected_bit -> "rbit"
      | Config.Cluster_list -> "clist")
  | Config.Confed s ->
    Printf.sprintf "confed(%d,%d)"
      (Array.length s.Config.sub_as_of)
      (List.length s.Config.confed_links)
  | Config.Rcp { rcps } -> Printf.sprintf "rcp(%d)" (List.length rcps)
  | Config.Dual { tbrr; abrr; accept } ->
    (* Acceptance values are runtime state (§2.4 transition flips them
       mid-run) — the body captures them; only the shape goes here. *)
    Printf.sprintf "dual(%d,%d,%d)"
      (List.length tbrr.Config.clusters)
      (Array.length abrr.Config.arrs)
      (Array.length accept)

let fingerprint (c : Config.t) =
  Printf.sprintf
    "n=%d;asn=%d;scheme=%s;med=%s;mrai=%d;proc=%d;jitter=%d;full=%b;cprr=%b;damp=%b"
    c.Config.n_routers
    (Bgp.Asn.to_int c.Config.asn)
    (scheme_fp c.Config.scheme)
    (match c.Config.med_mode with
    | Bgp.Decision.Always_compare -> "always"
    | Bgp.Decision.Per_neighbor_as -> "per-as")
    c.Config.mrai c.Config.proc_delay c.Config.proc_jitter
    c.Config.store_full_sets c.Config.control_plane_rrs
    (c.Config.damping <> None)

(* ------------------------------------------------------------------ *)
(* Route interning                                                     *)

(* Routes repeat heavily across RIB tables (the same route sits in a
   sender's Adj-RIB-Out, the receiver's Adj-RIB-In and often a Loc-RIB),
   so the format stores each distinct route once and references it by id
   everywhere else. Ids are assigned in body first-use order, which is
   deterministic because the body itself is canonical.

   Mirroring the in-memory representation (Bgp.Route), a route entry is
   only a (block id, prefix, path id) head; the heavy path-attribute
   blocks live in their own table, each distinct block encoded exactly
   once — as the bytes of a single-NLRI RFC 4271 UPDATE, written and
   read in place by Bgp.Wire. Decoding rebuilds the sharing: every
   route referencing block [i] points at the same interned record. *)

(* First-use ids over an open-addressed table: [slots] holds id + 1 (0 is
   free) and stays at most half full. Blocks are keyed on their
   precomputed hash and [Route.attrs_equal] (a pointer comparison,
   structural only across domains); heads on (block, prefix, path id). *)
type 'a ids = {
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
  mutable keys : 'a array;  (* by id *)
  mutable count : int;
  mutable slots : int array;
}

(* Small at first: a gadget network's snapshot numbers a few routes, and
   the schedule explorer encodes one per state. [keys] doubles by
   appending itself, as [Array.make] of a large array with a young
   filler would force a minor collection. *)
let ids_create ~hash ~equal = { hash; equal; keys = [||]; count = 0; slots = Array.make 32 0 }

let rec probe t x mask i =
  let s = Array.unsafe_get t.slots i in
  if s = 0 || t.equal t.keys.(s - 1) x then i else probe t x mask ((i + 1) land mask)

let slot t x =
  let mask = Array.length t.slots - 1 in
  probe t x mask (t.hash x land mask)

let grow t =
  let n = 2 * Array.length t.slots in
  t.slots <- Array.make n 0;
  for id = 0 to t.count - 1 do
    t.slots.(slot t t.keys.(id)) <- id + 1
  done

let id_of t x =
  let i = slot t x in
  let s = t.slots.(i) in
  if s > 0 then s - 1
  else begin
    let id = t.count in
    if id = Array.length t.keys then
      t.keys <- (if id = 0 then Array.make 16 x else Array.append t.keys t.keys);
    t.keys.(id) <- x;
    t.count <- id + 1;
    if 2 * t.count <= Array.length t.slots then t.slots.(i) <- id + 1 else grow t;
    id
  end

let route_ids () =
  ids_create
    ~hash:(fun (r : R.t) ->
      (R.attrs_hash r.R.attrs * 31 + Netaddr.Prefix.to_key r.R.prefix) * 31
      + r.R.path_id)
    ~equal:(fun (a : R.t) b ->
      a.R.path_id = b.R.path_id
      && Netaddr.Prefix.equal a.R.prefix b.R.prefix
      && R.attrs_equal a.R.attrs b.R.attrs)

let block_ids () = ids_create ~hash:R.attrs_hash ~equal:R.attrs_equal

let wroute (e : R.t ids) b r = C.w32 b (id_of e r)

(* Route lists are the bulk of a body: written and read by direct
   recursion, with no closure per list. *)
let rec wroute_items e b = function
  | [] -> ()
  | r :: rest ->
    wroute e b r;
    wroute_items e b rest

let wroutes e b routes =
  C.w32 b (List.length routes);
  wroute_items e b routes

type dec = { rd : C.reader; route_tbl : R.t array; n_routers : int }

let rroute d =
  let i = C.r32 d.rd in
  if i >= Array.length d.route_tbl then
    C.bad "route id %d out of table range %d" i (Array.length d.route_tbl);
  d.route_tbl.(i)

let[@tail_mod_cons] rec rroute_items d n =
  if n = 0 then []
  else
    let r = rroute d in
    r :: rroute_items d (n - 1)

let rroutes d = rroute_items d (C.rcount d.rd)

(* ------------------------------------------------------------------ *)
(* Protocol pieces                                                     *)

let wprefix b p = C.wint b (Netaddr.Prefix.to_key p)

(* Keys and addresses are checked, not masked: a value no encoder writes
   is corruption the CRC missed, or a forged file. *)
let rkey rd =
  let k = C.rint rd in
  if not (Netaddr.Prefix.is_key k) then C.bad "invalid prefix key %#x" k;
  k

let rprefix d = Netaddr.Prefix.of_key (rkey d.rd)

(* A router index, as events, inputs and sessions name a router or a
   peer: one outside the network would fail only once the run reaches
   it. *)
let rrouter d =
  let i = C.rint d.rd in
  if i < 0 || i >= d.n_routers then
    C.bad "router index %d outside the network's %d routers" i d.n_routers;
  i
let wipv4 b a = C.wint b (Netaddr.Ipv4.to_int a)

let ripv4 d =
  let a = C.rint d.rd in
  if a < 0 || a > 0xFFFF_FFFF then C.bad "invalid IPv4 address word %#x" a;
  Netaddr.Ipv4.of_int a

let wdelta e b (d : Proto.delta) =
  wprefix b d.Proto.prefix;
  wroutes e b d.Proto.routes;
  C.wlist b C.wint d.Proto.withdrawn_ids

let rdelta d =
  let prefix = rprefix d in
  let routes = rroutes d in
  let withdrawn_ids = C.rlist d.rd C.rint in
  { Proto.prefix; routes; withdrawn_ids }

let witem e b ((c, delta) : Proto.item) =
  C.w8 b (Proto.channel_tag c);
  wdelta e b delta

let ritem d : Proto.item =
  let tag = C.r8 d.rd in
  let channel =
    try Proto.channel_of_tag tag
    with Invalid_argument _ -> C.bad "unknown channel tag %d" tag
  in
  (channel, rdelta d)

let winput e b (i : Router.input) =
  match i with
  | Router.In_items { src; items } ->
    C.w8 b 0;
    C.wint b src;
    C.wlist b (witem e) items
  | Router.In_ebgp { neighbor; route } ->
    C.w8 b 1;
    wipv4 b neighbor;
    wroute e b route
  | Router.In_ebgp_withdraw { neighbor; prefix; path_id } ->
    C.w8 b 2;
    wipv4 b neighbor;
    wprefix b prefix;
    C.wint b path_id
  | Router.In_local route ->
    C.w8 b 3;
    wroute e b route
  | Router.In_local_withdraw { prefix; path_id } ->
    C.w8 b 4;
    wprefix b prefix;
    C.wint b path_id
  | Router.In_redecide_all -> C.w8 b 5

let rinput d : Router.input =
  match C.r8 d.rd with
  | 0 ->
    let src = rrouter d in
    let items = C.rlist d.rd (fun _ -> ritem d) in
    Router.In_items { src; items }
  | 1 ->
    let neighbor = ripv4 d in
    let route = rroute d in
    Router.In_ebgp { neighbor; route }
  | 2 ->
    let neighbor = ripv4 d in
    let prefix = rprefix d in
    let path_id = C.rint d.rd in
    Router.In_ebgp_withdraw { neighbor; prefix; path_id }
  | 3 -> Router.In_local (rroute d)
  | 4 ->
    let prefix = rprefix d in
    let path_id = C.rint d.rd in
    Router.In_local_withdraw { prefix; path_id }
  | 5 -> Router.In_redecide_all
  | t -> C.bad "unknown router input tag %d" t

let wop e b (op : Network.op) =
  match op with
  | Network.Inject { router; neighbor; route } ->
    C.w8 b 0;
    C.wint b router;
    wipv4 b neighbor;
    wroute e b route
  | Network.Withdraw { router; neighbor; prefix; path_id } ->
    C.w8 b 1;
    C.wint b router;
    wipv4 b neighbor;
    wprefix b prefix;
    C.wint b path_id
  | Network.Originate { router; route } ->
    C.w8 b 2;
    C.wint b router;
    wroute e b route
  | Network.Withdraw_local { router; prefix; path_id } ->
    C.w8 b 3;
    C.wint b router;
    wprefix b prefix;
    C.wint b path_id
  | Network.Fail i ->
    C.w8 b 4;
    C.wint b i
  | Network.Recover i ->
    C.w8 b 5;
    C.wint b i

let rop d : Network.op =
  match C.r8 d.rd with
  | 0 ->
    let router = rrouter d in
    let neighbor = ripv4 d in
    let route = rroute d in
    Network.Inject { router; neighbor; route }
  | 1 ->
    let router = rrouter d in
    let neighbor = ripv4 d in
    let prefix = rprefix d in
    let path_id = C.rint d.rd in
    Network.Withdraw { router; neighbor; prefix; path_id }
  | 2 ->
    let router = rrouter d in
    let route = rroute d in
    Network.Originate { router; route }
  | 3 ->
    let router = rrouter d in
    let prefix = rprefix d in
    let path_id = C.rint d.rd in
    Network.Withdraw_local { router; prefix; path_id }
  | 4 -> Network.Fail (rrouter d)
  | 5 -> Network.Recover (rrouter d)
  | t -> C.bad "unknown op tag %d" t

let wpayload e b (p : Network.payload) =
  match p with
  | Network.Deliver { src; dst; bytes; msgs; items } ->
    C.w8 b 0;
    C.wint b src;
    C.wint b dst;
    C.wint b bytes;
    C.wint b msgs;
    C.wlist b (witem e) items
  | Network.Process i ->
    C.w8 b 1;
    C.wint b i
  | Network.Mrai_flush { router; peer } ->
    C.w8 b 2;
    C.wint b router;
    C.wint b peer
  | Network.Purge { router; peer } ->
    C.w8 b 3;
    C.wint b router;
    C.wint b peer
  | Network.Establish { router; peer } ->
    C.w8 b 4;
    C.wint b router;
    C.wint b peer
  | Network.Op op ->
    C.w8 b 5;
    wop e b op
  | Network.Thunk _ ->
    C.bad
      "pending Thunk event (a closure scheduled with Network.at) cannot be \
       checkpointed; schedule Network.at_op operations instead"

let rpayload d : Network.payload =
  match C.r8 d.rd with
  | 0 ->
    let src = rrouter d in
    let dst = rrouter d in
    let bytes = C.rint d.rd in
    let msgs = C.rint d.rd in
    let items = C.rlist d.rd (fun _ -> ritem d) in
    Network.Deliver { src; dst; bytes; msgs; items }
  | 1 -> Network.Process (rrouter d)
  | 2 ->
    let router = rrouter d in
    let peer = rrouter d in
    Network.Mrai_flush { router; peer }
  | 3 ->
    let router = rrouter d in
    let peer = rrouter d in
    Network.Purge { router; peer }
  | 4 ->
    let router = rrouter d in
    let peer = rrouter d in
    Network.Establish { router; peer }
  | 5 -> Network.Op (rop d)
  | t -> C.bad "unknown payload tag %d" t

let wevent e b (ev : Network.payload Sim.event) =
  C.wint b ev.Sim.time;
  C.wint b ev.Sim.seq;
  C.wint b ev.Sim.kind;
  C.wint b ev.Sim.actor;
  C.wint b ev.Sim.detail;
  wpayload e b ev.Sim.payload

let revent d : Network.payload Sim.event =
  let time = C.rint d.rd in
  let seq = C.rint d.rd in
  let kind = C.rint d.rd in
  let actor = C.rint d.rd in
  let detail = C.rint d.rd in
  let payload = rpayload d in
  { Sim.time; seq; kind; actor; detail; payload }

(* ------------------------------------------------------------------ *)
(* Router state                                                        *)

(* [Counters.to_fields] lists every counter in the format's order. *)
let wcounters b c = List.iter (fun (_, v) -> C.wint b v) (Counters.to_fields c)

let rcounters d (c : Counters.t) =
  c.Counters.updates_received <- C.rint d.rd;
  c.Counters.updates_generated <- C.rint d.rd;
  c.Counters.updates_transmitted <- C.rint d.rd;
  c.Counters.updates_suppressed <- C.rint d.rd;
  c.Counters.messages_transmitted <- C.rint d.rd;
  c.Counters.bytes_transmitted <- C.rint d.rd;
  c.Counters.bytes_received <- C.rint d.rd;
  c.Counters.withdrawals_received <- C.rint d.rd;
  c.Counters.withdrawals_transmitted <- C.rint d.rd;
  c.Counters.decisions_run <- C.rint d.rd;
  c.Counters.decisions_full <- C.rint d.rd;
  c.Counters.decisions_delta <- C.rint d.rd;
  c.Counters.decisions_skipped <- C.rint d.rd;
  c.Counters.rib_touches <- C.rint d.rd;
  c.Counters.routes_damped <- C.rint d.rd;
  c.Counters.hijacks_injected <- C.rint d.rd;
  c.Counters.takeovers <- C.rint d.rd;
  c.Counters.prefixes_moved_on_repartition <- C.rint d.rd;
  c.Counters.last_change <- C.rint d.rd;
  c.Counters.mem_peak_kb <- C.rint d.rd

(* What the encoder writes: the state as it is, or a view that the
   schedule explorer's digests normalise (snapshot.mli). *)
type view = {
  exact : bool;
  path_ids : bool;
  events : Network.payload Sim.event list -> Network.payload Sim.event list;
  inbox : Router.input list -> Router.input list;
  sessions : Outbox.session_state list -> Outbox.session_state list;
  routes : R.t list -> R.t list;
}

let exact =
  { exact = true; path_ids = true; events = Fun.id; inbox = Fun.id; sessions = Fun.id;
    routes = Fun.id }

(* A router from its live tables, in the registry's slot order: RIBs
   by prefix after their prefix count, planes source-major, the
   allocators, the eBGP neighbours by key, the inbox in FIFO order, the
   sessions and damping entries. An empty slot costs one count. *)
let wrib v e b rib =
  if Bgp.Rib.entry_count rib = 0 then C.w32 b 0
  else begin
    C.w32 b (Bgp.Rib.fold (fun _ _ n -> n + 1) rib 0);
    Bgp.Rib.iter
      (fun p routes ->
        wprefix b p;
        wroutes e b (v.routes routes))
      rib
  end

let wplane v e b plane =
  if Adj_in.entry_count plane = 0 then C.w32 b 0
  else
    Adj_in.iter_by_source plane ~sources:(C.w32 b)
      ~source:(fun src k ->
        C.wint b src;
        C.w32 b k)
      ~entry:(fun key routes ->
        C.wint b key;
        wroutes e b (v.routes routes))

(* Sorted in place: a border router holds one entry per eBGP route. *)
let wneighbors b tbl =
  let entries = Array.of_list (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  Array.sort
    (fun ((p, i), _) ((q, j), _) -> if p <> q then Int.compare p q else Int.compare i j)
    entries;
  C.warray b
    (fun b ((k1, k2), addr) ->
      C.wint b k1;
      C.wint b k2;
      wipv4 b addr)
    entries

let wrouter v e b r =
  C.warray b (wrib v e) (Router.ribs r);
  C.warray b (wplane v e) (Router.planes r);
  if v.path_ids then
    C.warray b
      (fun b pid ->
        C.wlist b
          (fun b (key, routes, next) ->
            C.wint b key;
            wroutes e b routes;
            C.wint b next)
          (Path_id.dump pid))
      (Router.path_ids r)
  else C.w32 b 0;
  wneighbors b (Router.ebgp_neighbors r);
  C.wlist b (winput e) (v.inbox (List.of_seq (Queue.to_seq (Router.inbox r))));
  C.wbool b (Router.process_scheduled r);
  (* Format 5's outgoing-queue slot, a list count that is always 0: a
     router's output is flushed before its event ends. *)
  C.w32 b 0;
  C.wlist b
    (fun b (ss : Outbox.session_state) ->
      C.wint b ss.Outbox.ss_peer;
      C.wint b ss.Outbox.ss_mrai_until;
      C.wlist b (witem e) ss.Outbox.ss_pending;
      C.wbool b ss.Outbox.ss_flush_scheduled)
    (v.sessions (Outbox.dump (Router.outbox r)));
  C.wlist b
    (fun b (ds : Damping_table.entry_state) ->
      let k1, k2 = ds.Damping_table.ds_key in
      C.wint b k1;
      C.wint b k2;
      C.w64 b (Int64.bits_of_float ds.Damping_table.ds_penalty);
      C.wint b ds.Damping_table.ds_stamp;
      C.wopt b (wroute e) ds.Damping_table.ds_held;
      wipv4 b ds.Damping_table.ds_neighbor;
      C.wint b ds.Damping_table.ds_wake)
    (Damping_table.dump (Router.damping r));
  if v.exact then begin
    wcounters b (Router.counters r);
    C.wint b (Router.rejected_loops r)
  end;
  C.wbool b (Router.is_up r)

(* Each of this build's [slots], once the snapshot holds as many. *)
let rslots d what slots f =
  let k = C.r32 d.rd in
  if k <> Array.length slots then
    C.bad "restore rejected: %d %s slots, this build has %d" k what (Array.length slots);
  Array.iter f slots

(* Counted (prefix, routes) entries, each stored as it is read. *)
let rsets d store =
  for _ = 1 to C.rcount d.rd do
    let p = rprefix d in
    store p (rroutes d)
  done

(* The inverse of [wrouter], loading each table in place as it is read. *)
let rrouter_into d r =
  Router.wipe r;
  rslots d "RIB" (Router.ribs r) (fun rib -> rsets d (Bgp.Rib.set rib));
  rslots d "plane" (Router.planes r) (fun plane ->
      for _ = 1 to C.rcount d.rd do
        let src = rrouter d in
        rsets d (fun p routes -> ignore (Adj_in.exchange plane p src routes))
      done);
  rslots d "path-id" (Router.path_ids r) (fun pid ->
      Path_id.load pid
        (C.rlist d.rd (fun _ ->
             let key = C.rint d.rd in
             let routes = rroutes d in
             let next = C.rint d.rd in
             (key, routes, next))));
  let neighbors = Router.ebgp_neighbors r in
  for _ = 1 to C.rcount d.rd do
    let k1 = rkey d.rd in
    let k2 = C.rint d.rd in
    Hashtbl.replace neighbors (k1, k2) (ripv4 d)
  done;
  let inbox = Router.inbox r in
  for _ = 1 to C.rcount d.rd do
    Queue.add (rinput d) inbox
  done;
  let process_scheduled = C.rbool d.rd in
  (match C.r32 d.rd with
  | 0 -> ()
  | n -> C.bad "router outgoing queue holds %d entries; it is always empty" n);
  Outbox.load (Router.outbox r)
    (C.rlist d.rd (fun _ ->
         let ss_peer = rrouter d in
         let ss_mrai_until = C.rint d.rd in
         let ss_pending = C.rlist d.rd (fun _ -> ritem d) in
         let ss_flush_scheduled = C.rbool d.rd in
         { Outbox.ss_peer; ss_mrai_until; ss_pending; ss_flush_scheduled }));
  Damping_table.load (Router.damping r)
    (C.rlist d.rd (fun _ ->
         let k1 = rkey d.rd in
         let k2 = C.rint d.rd in
         let ds_penalty = Int64.float_of_bits (C.r64 d.rd) in
         let ds_stamp = C.rint d.rd in
         let ds_held = C.ropt d.rd (fun _ -> rroute d) in
         let ds_neighbor = ripv4 d in
         let ds_wake = C.rint d.rd in
         { Damping_table.ds_key = (k1, k2); ds_penalty; ds_stamp; ds_held;
           ds_neighbor; ds_wake }));
  rcounters d (Router.counters r);
  let rejected_loops = C.rint d.rd in
  let up = C.rbool d.rd in
  Router.restore_flags r ~process_scheduled ~rejected_loops ~up

(* ------------------------------------------------------------------ *)
(* Trace sink                                                          *)

let wsink b s =
  C.wint b (Sim.Trace.capacity s);
  C.wint b (Sim.Trace.sample_every s);
  C.wlist b
    (fun b (en : Sim.Trace.entry) ->
      C.wint b en.Sim.Trace.time;
      C.wint b en.Sim.Trace.kind;
      C.wint b en.Sim.Trace.actor;
      C.wint b en.Sim.Trace.depth;
      C.wint b en.Sim.Trace.detail)
    (Sim.Trace.entries s);
  C.wint b (Sim.Trace.until_sample s);
  C.wint b (Sim.Trace.seen s);
  C.wint b (Sim.Trace.recorded s)

let rsink d =
  let capacity = C.rint d.rd in
  let sample_every = C.rint d.rd in
  let entries =
    C.rlist d.rd (fun _ ->
        let time = C.rint d.rd in
        let kind = C.rint d.rd in
        let actor = C.rint d.rd in
        let depth = C.rint d.rd in
        let detail = C.rint d.rd in
        { Sim.Trace.time; kind; actor; depth; detail })
  in
  let until_sample = C.rint d.rd in
  let seen = C.rint d.rd in
  let recorded = C.rint d.rd in
  match Sim.Trace.restore ~capacity ~sample_every ~until_sample ~seen ~recorded entries with
  | s -> s
  | exception Invalid_argument msg -> C.bad "trace sink: %s" msg

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

(* The §2.4 acceptance switches live in the (mutable) Dual config and
   flip mid-run, so they are body state: [] outside Dual. *)
let acceptance_values net =
  match (Network.config net).Config.scheme with
  | Config.Dual { accept; _ } ->
    Array.to_list
      (Array.map
         (function Config.Accept_tbrr -> 0 | Config.Accept_abrr -> 1)
         accept)
  | _ -> []

(* Written into the config directly: the routers are loaded already, and
   [Network.set_acceptance] would queue a re-decision on each of them. *)
let restore_acceptance net vals =
  let accept =
    match (Network.config net).Config.scheme with
    | Config.Dual { accept; _ } -> accept
    | _ -> [||]
  in
  if List.length vals <> Array.length accept then
    C.bad "acceptance list length %d does not match scheme (%d)"
      (List.length vals) (Array.length accept);
  List.iteri
    (fun ap v ->
      accept.(ap) <-
        (match v with
        | 0 -> Config.Accept_tbrr
        | 1 -> Config.Accept_abrr
        | _ -> C.bad "bad acceptance value %d for AP %d" v ap))
    vals

(* {2 Encoding: two passes}

   Pass 1 walks the live tables one router at a time and writes the body
   into fixed-size chunks, numbering routes as the body first uses them.
   Blocks are then numbered in route-id order. Pass 2 writes the header,
   the attribute table, the route table and the body chunks to a sink
   whose size is known in advance. *)

let chunk_size = 65536

(* Per domain, the first body chunk, reused by every encode: a small
   network's snapshot allocates little beyond its bytes. A failed encode
   leaves nothing to undo. *)
let first_chunk = Domain.DLS.new_key (fun () -> Bytes.create chunk_size)

type pass1 = {
  routes : R.t ids;
  blocks : R.attrs ids;
  route_block : int array;  (* block id of each route id *)
  chunks : (Bytes.t * int) list;  (* the body, in order *)
  size : int;  (* of the whole snapshot, CRC included *)
}

let header_size fp = String.length magic + 2 + 4 + String.length fp

let pass1 v net ~fp =
  let routes = route_ids () in
  let chunks = ref [] in
  let b =
    C.out (Domain.DLS.get first_chunk) ~spill:(fun o ->
        chunks := (C.buffer o, C.length o) :: !chunks;
        C.set_buffer o (Bytes.create chunk_size))
  in
  let sim = Network.sim net in
  if v.exact then begin
    C.wint b (Sim.now sim);
    C.wint b (Sim.next_seq sim);
    C.wint b (Sim.events_processed sim);
    C.w64 b (Eventsim.Prng.state (Sim.rng sim))
  end;
  C.wlist b (wevent routes) (v.events (Sim.pending_events sim));
  if v.exact then C.wint b (Network.best_changes net);
  let n = Network.router_count net in
  C.w32 b n;
  for i = 0 to n - 1 do
    wrouter v routes b (Network.router net i)
  done;
  if v.exact then C.wopt b wsink (Sim.sink sim);
  C.wlist b C.w8 (acceptance_values net);
  let chunks = List.rev ((C.buffer b, C.length b) :: !chunks) in
  let blocks = block_ids () in
  let route_block = Array.make routes.count 0 in
  let size = ref (header_size fp + 4 + 4 + (20 * routes.count) + 4) in
  for id = 0 to routes.count - 1 do
    let a = R.attrs routes.keys.(id) in
    let before = blocks.count in
    let bid = id_of blocks a in
    route_block.(id) <- bid;
    if blocks.count > before then begin
      let n = Bgp.Wire.attrs_entry_size a in
      if n > Bgp.Wire.max_message_size then
        C.bad "an attribute block needs %d bytes, more than one UPDATE holds" n;
      size := !size + 4 + n
    end
  done;
  List.iter (fun (_, n) -> size := !size + n) chunks;
  { routes; blocks; route_block; chunks; size = !size }

let pass2 o ~fp p =
  C.wsub o magic 0 (String.length magic);
  C.w16 o format_version;
  C.wstr o fp;
  C.w32 o p.blocks.count;
  for bid = 0 to p.blocks.count - 1 do
    let a = p.blocks.keys.(bid) in
    let n = Bgp.Wire.attrs_entry_size a in
    C.w32 o n;
    let pos = C.reserve o n in
    Bgp.Wire.write_attrs_entry a (C.buffer o) pos
  done;
  C.w32 o p.routes.count;
  for id = 0 to p.routes.count - 1 do
    let r = p.routes.keys.(id) in
    C.w32 o p.route_block.(id);
    C.wint o (Netaddr.Prefix.to_key r.R.prefix);
    C.wint o r.R.path_id
  done;
  List.iter (fun (c, n) -> C.wsub o (Bytes.unsafe_to_string c) 0 n) p.chunks

let put_crc b pos crc =
  Bytes.set_uint16_be b pos (crc lsr 16);
  Bytes.set_uint16_be b (pos + 2) (crc land 0xFFFF)

(* The encoding in a buffer of its exact size, CRC slot unfilled. *)
let render v net ~fp =
  let p = pass1 v net ~fp in
  let b = Bytes.create p.size in
  pass2 (C.out b ~spill:(fun _ -> invalid_arg "Snapshot.encode: size miscounted")) ~fp p;
  b

let encode net =
  try
    let b = render exact net ~fp:(fingerprint (Network.config net)) in
    let n = Bytes.length b in
    put_crc b (n - 4) (C.crc32 ~len:(n - 4) (Bytes.unsafe_to_string b));
    Ok (Bytes.unsafe_to_string b)
  with C.Bad msg -> Error msg

let decode net s =
  try
    let n = String.length s in
    if n < String.length magic + 2 + 4 + 4 + 4 then
      C.bad "snapshot too short (%d bytes)" n;
    (* Integrity first: everything after this reads trusted-length data. *)
    let stored = C.r32 (C.reader ~pos:(n - 4) s) in
    let actual = C.crc32 ~len:(n - 4) s in
    if stored <> actual then
      C.bad "CRC mismatch (stored %08x, computed %08x)" stored actual;
    if String.sub s 0 (String.length magic) <> magic then
      C.bad "bad magic %S" (String.sub s 0 (String.length magic));
    let rd = C.reader ~pos:(String.length magic) s in
    let version = C.r16 rd in
    if version <> format_version then
      C.bad "unsupported snapshot version %d (this build reads %d)" version
        format_version;
    let fp = C.rstr rd in
    let expected = fingerprint (Network.config net) in
    if fp <> expected then
      C.bad "config fingerprint mismatch: snapshot %S, network %S" fp expected;
    let n_attrs = C.r32 rd in
    (* Each attribute entry costs at least its 4-byte length prefix, so
       a count beyond the remaining input is a lying length field. *)
    if n_attrs * 4 > n - C.pos rd then
      C.bad "attribute table count %d exceeds remaining input" n_attrs;
    let attrs_tbl = Array.make n_attrs R.dummy_attrs in
    for i = 0 to n_attrs - 1 do
      let len = C.r32 rd in
      C.need rd len;
      (match Bgp.Wire.read_attrs_entry s ~pos:(C.pos rd) ~len with
      | Ok a -> attrs_tbl.(i) <- a
      | Error err ->
        C.bad "attribute table entry %d: %s" i
          (Format.asprintf "%a" Bgp.Wire.pp_error err));
      C.skip rd len
    done;
    let n_routes = C.r32 rd in
    if n_routes * 4 > n - C.pos rd then
      C.bad "route table count %d exceeds remaining input" n_routes;
    let route_tbl =
      Array.init n_routes (fun _ ->
          let ai = C.r32 rd in
          if ai >= n_attrs then
            C.bad "attribute id %d out of table range %d" ai n_attrs;
          let prefix = Netaddr.Prefix.of_key (rkey rd) in
          let path_id = C.rint rd in
          R.of_attrs ~path_id ~prefix attrs_tbl.(ai))
    in
    let d = { rd; route_tbl; n_routers = Network.router_count net } in
    let clock = C.rint rd in
    let next_seq = C.rint rd in
    let processed = C.rint rd in
    let rng = C.r64 rd in
    let events = C.rlist rd (fun _ -> revent d) in
    let best_changes = C.rint rd in
    (* Routers load as they are read: from here on a failure leaves the
       network partly restored, and the caller discards it. *)
    let n_routers = C.r32 rd in
    if n_routers <> Network.router_count net then
      C.bad "snapshot holds %d routers, the network %d" n_routers
        (Network.router_count net);
    for i = 0 to n_routers - 1 do
      rrouter_into d (Network.router net i)
    done;
    let sink = C.ropt rd (fun _ -> rsink d) in
    let acceptance = C.rlist rd C.r8 in
    if C.pos rd <> n - 4 then
      C.bad "%d trailing bytes after snapshot body" (n - 4 - C.pos rd);
    restore_acceptance net acceptance;
    Network.restore_sim net ~clock ~next_seq ~processed ~rng ~best_changes ~sink events;
    Ok ()
  with C.Bad msg -> Error msg

(* Streamed through one chunk-sized buffer, with the CRC kept running. *)
let save net ~path =
  let tmp = path ^ ".tmp" in
  match
    let fp = fingerprint (Network.config net) in
    let p = pass1 exact net ~fp in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let crc = ref 0 in
        let spill o =
          let b = C.buffer o in
          crc := C.crc32 ~crc:!crc ~len:(C.length o) (Bytes.unsafe_to_string b);
          output oc b 0 (C.length o);
          C.set_buffer o b
        in
        let o = C.out (Bytes.create chunk_size) ~spill in
        pass2 o ~fp p;
        spill o;
        let trailer = Bytes.create 4 in
        put_crc trailer 0 !crc;
        output_bytes oc trailer;
        close_out oc);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception C.Bad msg -> Error msg
  | exception Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error msg

let load net ~path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let data = really_input_string ic len in
    close_in ic;
    decode net data
  with
  | Sys_error msg -> Error msg
  | End_of_file -> Error (path ^ ": unexpected end of file")

let digest net =
  match encode net with
  | Ok s -> Ok (Digest.to_hex (Digest.string s))
  | Error _ as e -> e

(* Views compare states of one network: no fingerprint, and no CRC. *)
let digest_with v net =
  try
    let b = render v net ~fp:"" in
    Ok (Digest.to_hex (Digest.subbytes b 0 (Bytes.length b - 4)))
  with C.Bad msg -> Error msg

let sanitize label =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-') as c -> c
      | _ -> '-')
    label

let segment_path ~dir ~label k =
  Filename.concat dir (Printf.sprintf "%s.seg%d.snap" (sanitize label) k)

let latest_segment ~dir ~label =
  let prefix = sanitize label ^ ".seg" and suffix = ".snap" in
  let plen = String.length prefix and slen = String.length suffix in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | files ->
    Array.fold_left
      (fun acc f ->
        if
          String.length f > plen + slen
          && String.sub f 0 plen = prefix
          && Filename.check_suffix f suffix
        then
          match
            int_of_string_opt (String.sub f plen (String.length f - plen - slen))
          with
          | Some k
            when (match acc with Some (k0, _) -> k > k0 | None -> true) ->
            Some (k, Filename.concat dir f)
          | _ -> acc
        else acc)
      None files

module Bisect = struct
  let search ~lo ~hi ~digest_a ~digest_b =
    if lo > hi then invalid_arg "Snapshot.Bisect.search: lo > hi";
    if digest_a lo <> digest_b lo then Some lo
    else if digest_a hi = digest_b hi then None
    else begin
      (* invariant: equal at !lo, different at !hi *)
      let lo = ref lo and hi = ref hi in
      while !hi - !lo > 1 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if digest_a mid = digest_b mid then lo := mid else hi := mid
      done;
      Some !hi
    end
end
