type 'p event = {
  time : Time.t;
  seq : int;
  kind : int;
  actor : int;
  detail : int;
  payload : 'p;
}

module Trace = struct
  type entry = {
    time : Time.t;
    kind : int;
    actor : int;
    depth : int;
    detail : int;
  }

  type sink = {
    buf : entry array;
    cap : int;
    mutable head : int;  (* next write slot *)
    mutable filled : int;  (* valid entries, <= cap *)
    every : int;
    mutable until_sample : int;
    mutable seen : int;
    mutable recorded : int;
  }

  let nil = { time = Time.zero; kind = 0; actor = -1; depth = 0; detail = 0 }

  let make ?(capacity = 4096) ?(sample_every = 1) () =
    if capacity < 1 then invalid_arg "Trace.make: capacity < 1";
    if sample_every < 1 then invalid_arg "Trace.make: sample_every < 1";
    {
      buf = Array.make capacity nil;
      cap = capacity;
      head = 0;
      filled = 0;
      every = sample_every;
      until_sample = 1;
      seen = 0;
      recorded = 0;
    }

  let capacity s = s.cap
  let sample_every s = s.every
  let seen s = s.seen
  let recorded s = s.recorded

  let push s e =
    s.buf.(s.head) <- e;
    s.head <- (s.head + 1) mod s.cap;
    if s.filled < s.cap then s.filled <- s.filled + 1;
    s.recorded <- s.recorded + 1

  let entries s =
    let start = (s.head - s.filled + s.cap) mod s.cap in
    List.init s.filled (fun i -> s.buf.((start + i) mod s.cap))

  let clear s =
    s.head <- 0;
    s.filled <- 0;
    s.until_sample <- 1;
    s.seen <- 0;
    s.recorded <- 0

  type dump = {
    d_capacity : int;
    d_sample_every : int;
    d_entries : entry list;  (* oldest first *)
    d_until_sample : int;
    d_seen : int;
    d_recorded : int;
  }

  let dump s =
    {
      d_capacity = s.cap;
      d_sample_every = s.every;
      d_entries = entries s;
      d_until_sample = s.until_sample;
      d_seen = s.seen;
      d_recorded = s.recorded;
    }

  let of_dump d =
    let s = make ~capacity:d.d_capacity ~sample_every:d.d_sample_every () in
    let n = List.length d.d_entries in
    if n > s.cap then invalid_arg "Trace.of_dump: more entries than capacity";
    List.iteri (fun i e -> s.buf.(i) <- e) d.d_entries;
    s.filled <- n;
    s.head <- n mod s.cap;
    s.until_sample <- d.d_until_sample;
    s.seen <- d.d_seen;
    s.recorded <- d.d_recorded;
    s

  (* One dispatched event as the run loop sees it: count it as seen,
     record every [every]-th. Factored out so the sharded barrier replay
     can feed the master sink the exact entry stream a serial run would
     have produced. *)
  let observe s e =
    s.seen <- s.seen + 1;
    s.until_sample <- s.until_sample - 1;
    if s.until_sample <= 0 then begin
      s.until_sample <- s.every;
      push s e
    end
end

type phase_stat = {
  calls : int;
  cpu_s : float;
  events : int;
  sim_advance : Time.t;
}

type 'p t = {
  queue : 'p event Pqueue.Heap.t;
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable processed : int;
  rng : Prng.t;
  mutable exec : ('p event -> unit) option;
  mutable probe : (unit -> unit) option;
  mutable probe_every : int;
  mutable until_probe : int;
  mutable trace : Trace.sink option;
  phases : (string, phase_stat) Hashtbl.t;
  mutable phase_order : string list;  (* reversed first-use order *)
}

type outcome = Quiescent | Deadline | Event_limit

let cmp_event a b =
  match Int.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c

let create_reified ?(seed = 42) () =
  {
    queue = Pqueue.Heap.create ~cmp:cmp_event ();
    clock = Time.zero;
    next_seq = 0;
    processed = 0;
    rng = Prng.create seed;
    exec = None;
    probe = None;
    probe_every = 0;
    until_probe = 0;
    trace = None;
    phases = Hashtbl.create 8;
    phase_order = [];
  }

let create ?seed () =
  let t = create_reified ?seed () in
  t.exec <- Some (fun ev -> ev.payload ());
  t

let set_exec t f = t.exec <- Some (fun ev -> f ev.payload)
let set_exec_event t f = t.exec <- Some f

let now t = t.clock
let rng t = t.rng

(* The one push path. Its arguments are not optional, so a caller
   that passes all of them boxes nothing. *)
let push t ~kind ~actor ~detail ~time payload =
  if time < t.clock then invalid_arg "Sim.push: time in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Pqueue.Heap.push t.queue { time; seq; kind; actor; detail; payload }

let schedule_at t ?(kind = 0) ?(actor = -1) ?(detail = 0) ~time payload =
  push t ~kind ~actor ~detail ~time payload

let schedule t ?(kind = 0) ?(actor = -1) ?(detail = 0) ~delay payload =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  push t ~kind ~actor ~detail ~time:(t.clock + delay) payload

let pending t = Pqueue.Heap.length t.queue
let events_processed t = t.processed
let next_seq t = t.next_seq
let set_next_seq t n = t.next_seq <- n
let next_time t = Option.map (fun ev -> ev.time) (Pqueue.Heap.peek t.queue)

let pending_events t =
  List.sort cmp_event (Pqueue.Heap.elements t.queue)

(* Raw scheduler hooks for the sharded engine: enqueue an event keeping
   its recorded seq (a barrier-merged cross-shard delivery), and rewrite
   pending seqs in place (provisional -> merged). The rewrite must be
   order-preserving, which provisional-to-real maps are: within one
   shard, provisional order equals merged order. *)
let push_event t ev = Pqueue.Heap.push t.queue ev
let map_pending t f = Pqueue.Heap.map_inplace t.queue f

let restore t ~clock ~next_seq ~processed ~rng_state events =
  Pqueue.Heap.clear t.queue;
  t.clock <- clock;
  t.next_seq <- next_seq;
  t.processed <- processed;
  Prng.set_state t.rng rng_state;
  (* Push raw events, preserving their original [seq] — tie-break order
     at equal timestamps must survive the round-trip, so the usual
     [schedule_at] (which allocates fresh seqs and rejects past times)
     is bypassed. *)
  List.iter (Pqueue.Heap.push t.queue) events

let set_probe t ~every f =
  if every < 1 then invalid_arg "Sim.set_probe: every must be positive";
  t.probe <- Some f;
  t.probe_every <- every;
  t.until_probe <- every

let clear_probe t =
  t.probe <- None;
  t.probe_every <- 0;
  t.until_probe <- 0

let set_sink t s = t.trace <- Some s
let clear_sink t = t.trace <- None
let sink t = t.trace

(* Everything that happens to a popped event, shared by the default
   in-order [run] loop and the explorer's out-of-order [fire]: event
   accounting, trace-sink sampling, execution, probe countdown.  The
   caller has already removed [ev] from the queue and advanced the
   clock. *)
let dispatch t exec ev =
  t.processed <- t.processed + 1;
  (match t.trace with
  | None -> ()
  | Some s ->
    Trace.observe s
      {
        Trace.time = ev.time;
        kind = ev.kind;
        actor = ev.actor;
        depth = Pqueue.Heap.length t.queue;
        detail = ev.detail;
      });
  exec ev;
  match t.probe with
  | None -> ()
  | Some f ->
    t.until_probe <- t.until_probe - 1;
    if t.until_probe <= 0 then begin
      t.until_probe <- t.probe_every;
      f ()
    end

(* Barrier-granular probe accounting for the sharded engine: advance the
   per-event countdown by a whole window's worth of processed events and
   invoke the probe once per due firing, at the (consistent) barrier
   state. The firing *count* matches a serial run's exactly; only the
   states the probe observes are coarser (barrier boundaries instead of
   every [every]-th event). *)
let probe_advance t n =
  match t.probe with
  | None -> ()
  | Some f ->
    if n > 0 then begin
      t.until_probe <- t.until_probe - n;
      while t.until_probe <= 0 do
        t.until_probe <- t.until_probe + t.probe_every;
        f ()
      done
    end

let run ?(until = max_int) ?(max_events = max_int) t =
  let exec =
    match t.exec with
    | Some f -> f
    | None -> invalid_arg "Sim.run: no executor installed (set_exec)"
  in
  let queue = t.queue in
  (* No option per event: the top is read and popped with the [_exn]
     accessors behind an emptiness test. *)
  let rec loop budget =
    if budget <= 0 then Event_limit
    else if Pqueue.Heap.is_empty queue then Quiescent
    else if (Pqueue.Heap.top_exn queue).time > until then Deadline
    else begin
      let ev = Pqueue.Heap.pop_exn queue in
      t.clock <- ev.time;
      dispatch t exec ev;
      loop (budget - 1)
    end
  in
  loop max_events

let fire t ~seq =
  let exec =
    match t.exec with
    | Some f -> f
    | None -> invalid_arg "Sim.fire: no executor installed (set_exec)"
  in
  match Pqueue.Heap.remove t.queue (fun ev -> ev.seq = seq) with
  | None -> invalid_arg "Sim.fire: no pending event with that seq"
  | Some ev ->
    (* Out-of-order delivery models an asynchronous schedule: firing an
       event "late" never moves the clock backwards, firing one whose
       timestamp is still in the future jumps the clock forward to it. *)
    if ev.time > t.clock then t.clock <- ev.time;
    dispatch t exec ev;
    ev

let phase t name f =
  let cpu0 = Sys.time () in
  let events0 = t.processed in
  let clock0 = t.clock in
  let account () =
    let prev =
      match Hashtbl.find_opt t.phases name with
      | Some s -> s
      | None ->
        t.phase_order <- name :: t.phase_order;
        { calls = 0; cpu_s = 0.; events = 0; sim_advance = Time.zero }
    in
    Hashtbl.replace t.phases name
      {
        calls = prev.calls + 1;
        cpu_s = prev.cpu_s +. (Sys.time () -. cpu0);
        events = prev.events + (t.processed - events0);
        sim_advance = prev.sim_advance + (t.clock - clock0);
      }
  in
  Fun.protect ~finally:account f

let phase_stats t =
  List.rev_map (fun name -> (name, Hashtbl.find t.phases name)) t.phase_order

let reset_phases t =
  Hashtbl.reset t.phases;
  t.phase_order <- []

let pp_outcome fmt = function
  | Quiescent -> Format.pp_print_string fmt "quiescent"
  | Deadline -> Format.pp_print_string fmt "deadline"
  | Event_limit -> Format.pp_print_string fmt "event-limit"
