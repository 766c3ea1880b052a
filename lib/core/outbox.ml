open Netaddr
open Eventsim

(* The domain's buffer (DESIGN.md, "Fan-out"). Between an entry point's
   first [enqueue] and its closing [flush] one router fills it, so it is
   empty at every event boundary. Each destination's items are consed
   onto its list, newest first; a destination's first item also pushes
   it on the [touched] stack. [owner] is the [uid] of the router filling
   it: entries an exception left behind are dropped when another router
   claims the buffer, never sent under that router's id. The [sort_*]
   arrays order one destination's items at a time, and [last] is the
   list the previous destination of this flush was handed. Like
   [Decision.Scratch] and [Wire.Sizer] it lives in domain-local
   storage. *)
type buffer = {
  mutable owner : int;  (* uid of the filling router, -1: none *)
  mutable lists : Proto.item list array;  (* by destination, newest first *)
  mutable touched : int array;  (* as long as [lists] *)
  mutable n_touched : int;
  mutable sort_items : Proto.item array;  (* enqueue order; free slots hold [spare] *)
  mutable sort_keys : int array;  (* [Proto.item_key], sorted *)
  mutable sort_pos : int array;  (* enqueue positions, permuted with the keys *)
  mutable last : Proto.item list;
}

let key =
  Domain.DLS.new_key (fun () ->
      { owner = -1; lists = [||]; touched = [||]; n_touched = 0; sort_items = [||];
        sort_keys = [||]; sort_pos = [||]; last = [] })

let clear_buffer b =
  for k = 0 to b.n_touched - 1 do
    b.lists.(b.touched.(k)) <- []
  done;
  b.n_touched <- 0;
  b.last <- [];
  b.owner <- -1

let grow b dst =
  let n = max (dst + 1) (2 * Array.length b.lists) in
  b.lists <- Key_sort.extend b.lists n [];
  b.touched <- Key_sort.extend b.touched n 0

(* Insertion sort: reflect targets are enqueued in ascending id order,
   so the stack is nearly sorted already. *)
let sort_touched b =
  let a = b.touched in
  for i = 1 to b.n_touched - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

type session = {
  mutable mrai_until : Time.t;
  pending : (int * int, Proto.item) Hashtbl.t;  (* (channel tag, prefix key) *)
  mutable flush_scheduled : bool;
}

type t = {
  id : int;
  uid : int;
  config : Config.t;
  counters : Counters.t;
  now : unit -> Time.t;
  schedule_flush : peer:int -> Time.t -> unit;
  transmit : dst:int -> bytes:int -> msgs:int -> Proto.item list -> unit;
  sessions : (int, session) Hashtbl.t;
}

(* Router ids repeat across networks, so the buffer tells routers apart
   by this serial number instead. *)
let next_uid = Atomic.make 0

let create ~id ~config ~counters ~now ~schedule_flush ~transmit =
  { id; uid = Atomic.fetch_and_add next_uid 1; config; counters; now; schedule_flush;
    transmit; sessions = Hashtbl.create 16 }

let enqueue o dst item =
  let b = Domain.DLS.get key in
  if b.owner <> o.uid then begin
    clear_buffer b;
    b.owner <- o.uid
  end;
  if dst >= Array.length b.lists then grow b dst;
  match b.lists.(dst) with
  | [] ->
    b.touched.(b.n_touched) <- dst;
    b.n_touched <- b.n_touched + 1;
    b.lists.(dst) <- [ item ]
  | items -> b.lists.(dst) <- item :: items

(* ------------------------------------------------------------------ *)
(* Sessions and MRAI                                                   *)

let session o dst =
  match Hashtbl.find o.sessions dst with
  | s -> s
  | exception Not_found ->
    let s = { mrai_until = Time.zero; pending = Hashtbl.create 8; flush_scheduled = false } in
    Hashtbl.add o.sessions dst s;
    s

let spare : Proto.item = (Proto.Mesh, Proto.delta Prefix.default [])

(* Fill the sort arrays from a newest-first list: position [i] holds the
   [i]th item enqueued. *)
let rec fill b i = function
  | [] -> ()
  | item :: items ->
    b.sort_items.(i) <- item;
    b.sort_keys.(i) <- Proto.item_key item;
    b.sort_pos.(i) <- i;
    fill b (i - 1) items

(* Does [l] hold exactly the sorted items, element by element? *)
let rec same_items b l j n =
  match l with
  | [] -> j = n
  | item :: l -> j < n && item == b.sort_items.(b.sort_pos.(j)) && same_items b l (j + 1) n

(* [n] items, newest first, sorted by channel and prefix, equal keys in
   enqueue order. The list [b.last] is reused when it holds the same
   items, as every client of an ARR's fan-out gets. *)
let sorted b n items =
  if n > Array.length b.sort_keys then begin
    let cap = max n (2 * Array.length b.sort_keys) in
    b.sort_items <- Key_sort.extend b.sort_items cap spare;
    b.sort_keys <- Key_sort.extend b.sort_keys cap 0;
    b.sort_pos <- Key_sort.extend b.sort_pos cap 0
  end;
  fill b (n - 1) items;
  Key_sort.sort b.sort_keys b.sort_pos n;
  let out =
    if same_items b b.last 0 n then b.last
    else begin
      let l = ref [] in
      for j = n - 1 downto 0 do
        l := b.sort_items.(b.sort_pos.(j)) :: !l
      done;
      !l
    end
  in
  Array.fill b.sort_items 0 n spare;
  b.last <- out;
  out

(* A session's pending items (one per key) in send order. *)
let sort_pending = function
  | ([] | [ _ ]) as items -> items
  | items ->
    let b = Domain.DLS.get key in
    let sorted = sorted b (List.length items) items in
    b.last <- [];
    sorted

(* Count and size the items in one pass: the sizer sees exactly the
   deltas of [Proto.wire_size (List.map snd items)]. *)
let rec count_and_size (c : Counters.t) sizer = function
  | [] -> ()
  | ((_, d) : Proto.item) :: items ->
    c.updates_transmitted <- c.updates_transmitted + 1;
    if Proto.is_withdraw d then
      c.withdrawals_transmitted <- c.withdrawals_transmitted + 1;
    Proto.size_delta sizer d;
    count_and_size c sizer items

(* [items] are in send order. *)
let transmit_now o dst (s : session) items =
  let sizer = Bgp.Wire.Sizer.create ~add_paths:(Config.add_paths o.config) in
  count_and_size o.counters sizer items;
  Bgp.Wire.Sizer.finish sizer;
  let bytes = Bgp.Wire.Sizer.bytes sizer and msgs = Bgp.Wire.Sizer.msgs sizer in
  o.counters.bytes_transmitted <- o.counters.bytes_transmitted + bytes;
  o.counters.messages_transmitted <- o.counters.messages_transmitted + msgs;
  s.mrai_until <- o.now () + o.config.mrai;
  o.transmit ~dst ~bytes ~msgs items

let merge_pending (s : session) ((channel, delta) : Proto.item) =
  let key = (Proto.channel_tag channel, Prefix.to_key delta.Proto.prefix) in
  let merged =
    match Hashtbl.find_opt s.pending key with
    | None -> delta
    | Some (_, old) ->
      let new_ids =
        List.map (fun (r : Bgp.Route.t) -> r.Bgp.Route.path_id) delta.Proto.routes
      in
      let carried =
        List.filter (fun i -> not (List.mem i new_ids)) old.Proto.withdrawn_ids
      in
      {
        delta with
        Proto.withdrawn_ids = Roles.dedup_ints (carried @ delta.Proto.withdrawn_ids);
      }
  in
  Hashtbl.replace s.pending key (channel, merged)

let send o dst items =
  if dst = o.id then o.transmit ~dst ~bytes:0 ~msgs:0 items
  else
    let s = session o dst in
    let now = o.now () in
    if o.config.mrai = Time.zero || now >= s.mrai_until then
      transmit_now o dst s items
    else begin
      o.counters.updates_suppressed <-
        o.counters.updates_suppressed + List.length items;
      List.iter (merge_pending s) items;
      if not s.flush_scheduled then begin
        s.flush_scheduled <- true;
        o.schedule_flush ~peer:dst (s.mrai_until - now)
      end
    end

let flush_peer o ~peer =
  match Hashtbl.find_opt o.sessions peer with
  | None -> ()
  | Some s ->
    s.flush_scheduled <- false;
    let items = Hashtbl.fold (fun _ item acc -> item :: acc) s.pending [] in
    Hashtbl.reset s.pending;
    if items <> [] then transmit_now o peer s (sort_pending items)

(* Hand each destination its items: destinations in ascending id
   order, each one's items sorted, except that a router sends itself
   its items in enqueue order. *)
let send_touched o b =
  for k = 0 to b.n_touched - 1 do
    let dst = b.touched.(k) in
    let items = b.lists.(dst) in
    b.lists.(dst) <- [];
    match items with
    | [ _ ] -> send o dst items
    | _ when dst = o.id -> send o dst (List.rev items)
    | _ -> send o dst (sorted b (List.length items) items)
  done

let flush o =
  let b = Domain.DLS.get key in
  if b.owner = o.uid then begin
    sort_touched b;
    (match send_touched o b with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      clear_buffer b;
      Printexc.raise_with_backtrace e bt);
    clear_buffer b
  end

let drop_session o peer = Hashtbl.remove o.sessions peer
let clear o = Hashtbl.reset o.sessions

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)

type session_state = {
  ss_peer : int;
  ss_mrai_until : Time.t;
  ss_pending : Proto.item list;
  ss_flush_scheduled : bool;
}

let dump o =
  Hashtbl.fold
    (fun peer (s : session) acc ->
      let pending = Hashtbl.fold (fun _ it acc -> it :: acc) s.pending [] in
      { ss_peer = peer; ss_mrai_until = s.mrai_until; ss_pending = sort_pending pending;
        ss_flush_scheduled = s.flush_scheduled }
      :: acc)
    o.sessions []
  |> List.sort (fun a b -> Int.compare a.ss_peer b.ss_peer)

let load o states =
  List.iter
    (fun ss ->
      let s =
        { mrai_until = ss.ss_mrai_until; pending = Hashtbl.create 8;
          flush_scheduled = ss.ss_flush_scheduled }
      in
      List.iter
        (fun (((c, d) : Proto.item) as item) ->
          Hashtbl.replace s.pending
            (Proto.channel_tag c, Prefix.to_key d.Proto.prefix)
            item)
        ss.ss_pending;
      Hashtbl.add o.sessions ss.ss_peer s)
    states
