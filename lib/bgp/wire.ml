open Netaddr

type error =
  | Truncated
  | Bad_marker
  | Bad_length of int
  | Bad_type of int
  | Bad_attribute of string
  | Bad_capability of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated message"
  | Bad_marker -> Format.pp_print_string fmt "bad marker"
  | Bad_length n -> Format.fprintf fmt "bad length %d" n
  | Bad_type n -> Format.fprintf fmt "bad message type %d" n
  | Bad_attribute s -> Format.fprintf fmt "bad attribute: %s" s
  | Bad_capability s -> Format.fprintf fmt "bad capability: %s" s

let max_message_size = 4096
let header_size = 19
let msg_type_open = 1
let msg_type_update = 2
let msg_type_notification = 3
let msg_type_keepalive = 4

(* --- writers ------------------------------------------------------- *)

let w8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w16 buf v =
  w8 buf (v lsr 8);
  w8 buf v

let w32 buf v =
  w16 buf (v lsr 16);
  w16 buf (v land 0xFFFF)

let w_addr buf a = w32 buf (Ipv4.to_int a)

let prefix_byte_len len = (len + 7) / 8

let w_prefix buf p =
  let len = Prefix.len p in
  w8 buf len;
  let a = Ipv4.to_int (Prefix.addr p) in
  for i = 0 to prefix_byte_len len - 1 do
    w8 buf ((a lsr (24 - (8 * i))) land 0xFF)
  done

let w_nlri buf ~add_paths ~path_id p =
  if add_paths then w32 buf path_id;
  w_prefix buf p

let flag_transitive = 0x40
let flag_optional = 0x80
let flag_opt_transitive = 0xC0

(* In-place writers: each stores big-endian bytes at [pos] of a caller's
   [bytes] and returns the position just past them. *)
let put8 b pos v =
  Bytes.set b pos (Char.unsafe_chr (v land 0xFF));
  pos + 1

let put16 b pos v = put8 b (put8 b pos (v lsr 8)) v
let put32 b pos v = put16 b (put16 b pos (v lsr 16)) v

let rec put_addrs b pos = function
  | [] -> pos
  | a :: rest -> put_addrs b (put32 b pos (Ipv4.to_int a)) rest

let rec put_asns b pos = function
  | [] -> pos
  | a :: rest -> put_asns b (put32 b pos (Asn.to_int a)) rest

let rec put_communities b pos = function
  | [] -> pos
  | c :: rest -> put_communities b (put32 b pos (Community.to_int c)) rest

let rec put_ext_communities b pos = function
  | [] -> pos
  | e :: rest ->
    let pos = put8 b pos (Ext_community.typ e) in
    let pos = put8 b pos (Ext_community.subtyp e) in
    let v = Ext_community.value e in
    let pos = put16 b pos (v lsr 32) in
    put_ext_communities b (put32 b pos (v land 0xFFFF_FFFF)) rest

let segment_code : As_path.segment -> int = function
  | As_path.Set _ -> 1
  | As_path.Seq _ -> 2
  | As_path.Confed_seq _ -> 3
  | As_path.Confed_set _ -> 4

let segment_asns : As_path.segment -> Asn.t list = function
  | As_path.Set a | As_path.Seq a | As_path.Confed_seq a | As_path.Confed_set a -> a

let rec put_segments b pos = function
  | [] -> pos
  | s :: rest ->
    let asns = segment_asns s in
    let pos = put8 b (put8 b pos (segment_code s)) (List.length asns) in
    put_segments b (put_asns b pos asns) rest

let rec segments_payload n = function
  | [] -> n
  | s :: rest -> segments_payload (n + 2 + (4 * List.length (segment_asns s))) rest

(* Attribute header: flags, type and the payload length, extended to
   two bytes above 255 (the sizes {!Route.wire_len} counts). *)
let put_attr b pos ~flags ~typ n =
  if n > 0xFF then put16 b (put8 b (put8 b pos (flags lor 0x10)) typ) n
  else put8 b (put8 b (put8 b pos flags) typ) n

(* The path-attribute section of a block: exactly [Route.wire_len a]
   bytes at [pos]. The one attribute encoder; [encode_update] and the
   snapshot entry writer both go through it. *)
let write_attrs (a : Route.attrs) b pos =
  let pos = put_attr b pos ~flags:flag_transitive ~typ:1 1 in
  let pos = put8 b pos (Origin.to_code a.origin) in
  let segs = As_path.segments a.as_path in
  let pos = put_attr b pos ~flags:flag_transitive ~typ:2 (segments_payload 0 segs) in
  let pos = put_segments b pos segs in
  let pos = put_attr b pos ~flags:flag_transitive ~typ:3 4 in
  let pos = put32 b pos (Ipv4.to_int a.next_hop) in
  let pos =
    match a.med with
    | None -> pos
    | Some m -> put32 b (put_attr b pos ~flags:flag_optional ~typ:4 4) m
  in
  let pos = put32 b (put_attr b pos ~flags:flag_transitive ~typ:5 4) a.local_pref in
  let pos =
    match a.communities with
    | [] -> pos
    | cs ->
      put_communities b
        (put_attr b pos ~flags:flag_opt_transitive ~typ:8 (4 * List.length cs))
        cs
  in
  let pos =
    match a.originator_id with
    | None -> pos
    | Some id ->
      put32 b (put_attr b pos ~flags:flag_optional ~typ:9 4) (Ipv4.to_int id)
  in
  let pos =
    match a.cluster_list with
    | [] -> pos
    | ids ->
      put_addrs b (put_attr b pos ~flags:flag_optional ~typ:10 (4 * List.length ids)) ids
  in
  match a.ext_communities with
  | [] -> pos
  | ecs ->
    put_ext_communities b
      (put_attr b pos ~flags:flag_opt_transitive ~typ:16 (8 * List.length ecs))
      ecs

let attrs_string a =
  let b = Bytes.create (Route.wire_len a) in
  ignore (write_attrs a b 0);
  Bytes.unsafe_to_string b

let finish_message typ body =
  let n = String.length body + header_size in
  assert (n <= max_message_size);
  let buf = Buffer.create n in
  for _ = 1 to 16 do
    w8 buf 0xFF
  done;
  w16 buf n;
  w8 buf typ;
  Buffer.add_string buf body;
  Buffer.to_bytes buf

(* --- OPEN ---------------------------------------------------------- *)

let encode_open (o : Msg.open_params) =
  let caps = Buffer.create 16 in
  (* Capability 65: 4-octet AS numbers. *)
  w8 caps 65;
  w8 caps 4;
  w32 caps (Asn.to_int o.asn);
  if o.add_paths then (
    (* Capability 69: add-paths, AFI 1 / SAFI 1 / send+receive. *)
    w8 caps 69;
    w8 caps 4;
    w16 caps 1;
    w8 caps 1;
    w8 caps 3);
  let params = Buffer.create 16 in
  w8 params 2 (* capability parameter *);
  w8 params (Buffer.length caps);
  Buffer.add_buffer params caps;
  let body = Buffer.create 32 in
  w8 body 4 (* version *);
  let asn16 = if Asn.to_int o.asn > 0xFFFF then 23456 else Asn.to_int o.asn in
  w16 body asn16;
  w16 body o.hold_time;
  w_addr body o.bgp_id;
  w8 body (Buffer.length params);
  Buffer.add_buffer body params;
  finish_message msg_type_open (Buffer.contents body)

(* --- UPDATE -------------------------------------------------------- *)

let nlri_size ~add_paths p =
  (if add_paths then 4 else 0) + 1 + prefix_byte_len (Prefix.len p)

(* Split a list of items into chunks whose [size]s sum to at most [room]. *)
let chunk ~room ~size items =
  let rec go current current_sz acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      let s = size x in
      if current <> [] && current_sz + s > room then
        go [ x ] s (List.rev current :: acc) rest
      else go (x :: current) (current_sz + s) acc rest
  in
  go [] 0 [] items

let encode_update ~add_paths (u : Msg.update) =
  let msgs = ref [] in
  let emit body = msgs := finish_message msg_type_update body :: !msgs in
  (* Withdrawal-only messages. *)
  let wd_size (w : Msg.withdrawal) = nlri_size ~add_paths w.prefix in
  let wd_room = max_message_size - header_size - 4 in
  List.iter
    (fun batch ->
      let buf = Buffer.create 128 in
      let wd = Buffer.create 128 in
      List.iter
        (fun (w : Msg.withdrawal) -> w_nlri wd ~add_paths ~path_id:w.path_id w.prefix)
        batch;
      w16 buf (Buffer.length wd);
      Buffer.add_buffer buf wd;
      w16 buf 0 (* no path attributes *);
      emit (Buffer.contents buf))
    (chunk ~room:wd_room ~size:wd_size u.withdrawn);
  (* Announcements grouped by identical attribute encoding. *)
  let groups : (string, Route.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = attrs_string (Route.attrs r) in
      match Hashtbl.find_opt groups key with
      | Some l -> l := r :: !l
      | None ->
        Hashtbl.add groups key (ref [ r ]);
        order := key :: !order)
    u.announced;
  List.iter
    (fun key ->
      let routes = List.rev !(Hashtbl.find groups key) in
      let room = max_message_size - header_size - 4 - String.length key in
      List.iter
        (fun batch ->
          let buf = Buffer.create 256 in
          w16 buf 0 (* no withdrawals *);
          w16 buf (String.length key);
          Buffer.add_string buf key;
          List.iter
            (fun (r : Route.t) ->
              w_nlri buf ~add_paths ~path_id:r.path_id r.prefix)
            batch;
          emit (Buffer.contents buf))
        (chunk ~room ~size:(fun (r : Route.t) -> nlri_size ~add_paths r.prefix) routes))
    (List.rev !order);
  List.rev !msgs

(* --- analytical sizing --------------------------------------------- *)

(* [Sizer] mirrors [encode_update] arithmetically: same attribute sizes,
   same grouping, same greedy chunking — without allocating a buffer,
   a list or a table entry. The simulator sizes every transmission this
   way (Proto.wire_size), so it is hot; [encode] stays the reference and
   a differential test pins the two together.

   Totals do not depend on the order of groups, only on the order of
   routes inside each group, so each group's greedy chunking runs as
   its routes arrive: a group needs only the bytes in its open message.
   Groups are found through an open-addressed table keyed on the
   block's [ahash] and confirmed with [Route.attrs_equal] (a pointer
   comparison unless the block comes from another domain). The table
   lives in domain-local storage like [Decision]'s scratch arrays; an
   epoch stamp marks a slot as taken in the current call, so starting a
   call clears nothing, and [total] overwrites the taken block slots so
   that the scratch keeps no block alive for the weak intern table. *)

module Sizer = struct
  type t = {
    mutable add_paths : bool;
    mutable busy : bool;  (* between [create] and [total] *)
    mutable epoch : int;
    mutable stamp : int array;  (* slot taken in this call iff = epoch *)
    mutable blocks : Route.attrs array;
    mutable open_bytes : int array;  (* NLRI bytes in the group's open message *)
    mutable taken : int array;  (* the taken slots, [groups] of them *)
    mutable groups : int;
    mutable wd_open : int;  (* NLRI bytes in the open withdrawal message *)
    mutable bytes : int;
    mutable msgs : int;
  }

  let initial_slots = 128

  let fresh () =
    {
      add_paths = false;
      busy = false;
      epoch = 0;
      stamp = Array.make initial_slots 0;
      blocks = Array.make initial_slots Route.dummy_attrs;
      open_bytes = Array.make initial_slots 0;
      taken = Array.make (initial_slots / 2) 0;
      groups = 0;
      wd_open = 0;
      bytes = 0;
      msgs = 0;
    }

  let scratch = Domain.DLS.new_key fresh

  let create ~add_paths =
    let s = Domain.DLS.get scratch in
    (* a second sizer alive at once in one domain gets its own table *)
    let s = if s.busy then fresh () else s in
    s.add_paths <- add_paths;
    s.busy <- true;
    s.epoch <- s.epoch + 1;
    s.groups <- 0;
    s.wd_open <- 0;
    s.bytes <- 0;
    s.msgs <- 0;
    s

  (* Greedy chunking, one item at a time: add an item of [n] bytes to a
     run of messages of [overhead] bytes each besides their items, whose
     open message holds [cur] bytes of items (0: none open yet). Returns
     the open message's item bytes afterwards. *)
  let add s ~overhead cur n =
    if cur = 0 || cur + n > max_message_size - overhead then begin
      s.msgs <- s.msgs + 1;
      s.bytes <- s.bytes + overhead + n;
      n
    end
    else begin
      s.bytes <- s.bytes + n;
      cur + n
    end

  let withdraw s p =
    s.wd_open <-
      add s ~overhead:(header_size + 4) s.wd_open
        (nlri_size ~add_paths:s.add_paths p)

  let rec probe s a mask i =
    if s.stamp.(i) <> s.epoch || Route.attrs_equal s.blocks.(i) a then i
    else probe s a mask ((i + 1) land mask)

  (* The slot holding [a], or the empty slot where it belongs. *)
  let slot s a =
    let mask = Array.length s.stamp - 1 in
    probe s a mask (Route.attrs_hash a land mask)

  let claim s i a open_bytes =
    s.stamp.(i) <- s.epoch;
    s.blocks.(i) <- a;
    s.open_bytes.(i) <- open_bytes;
    s.taken.(s.groups) <- i;
    s.groups <- s.groups + 1

  (* Double the table, keeping at most half of it taken. *)
  let grow s =
    let blocks = s.blocks and open_bytes = s.open_bytes and taken = s.taken in
    let groups = s.groups in
    let cap = 2 * Array.length s.stamp in
    s.stamp <- Array.make cap 0;
    s.blocks <- Array.make cap Route.dummy_attrs;
    s.open_bytes <- Array.make cap 0;
    s.taken <- Array.make (cap / 2) 0;
    s.groups <- 0;
    for g = 0 to groups - 1 do
      let a = blocks.(taken.(g)) in
      claim s (slot s a) a open_bytes.(taken.(g))
    done

  let announce s (r : Route.t) =
    let a = Route.attrs r in
    let n = nlri_size ~add_paths:s.add_paths r.prefix in
    let overhead = header_size + 4 + Route.wire_len a in
    let i = slot s a in
    if s.stamp.(i) = s.epoch then
      s.open_bytes.(i) <- add s ~overhead s.open_bytes.(i) n
    else begin
      let n = add s ~overhead 0 n in
      if 2 * (s.groups + 1) <= Array.length s.stamp then claim s i a n
      else begin
        grow s;
        claim s (slot s a) a n
      end
    end

  let finish s =
    for g = 0 to s.groups - 1 do
      s.blocks.(s.taken.(g)) <- Route.dummy_attrs
    done;
    s.busy <- false

  let bytes s = s.bytes
  let msgs s = s.msgs

  let total s =
    finish s;
    (s.bytes, s.msgs)
end

let measure_update ~add_paths (u : Msg.update) =
  let s = Sizer.create ~add_paths in
  List.iter (fun (w : Msg.withdrawal) -> Sizer.withdraw s w.prefix) u.withdrawn;
  List.iter (Sizer.announce s) u.announced;
  Sizer.total s

let encode_notification (n : Msg.notification) =
  let buf = Buffer.create 16 in
  w8 buf n.code;
  w8 buf n.subcode;
  Buffer.add_string buf n.data;
  finish_message msg_type_notification (Buffer.contents buf)

let encode ~add_paths = function
  | Msg.Open o -> [ encode_open o ]
  | Msg.Keepalive -> [ finish_message msg_type_keepalive "" ]
  | Msg.Notification n -> [ encode_notification n ]
  | Msg.Update u -> encode_update ~add_paths u

(* --- readers ------------------------------------------------------- *)

exception Decode_error of error

let fail e = raise (Decode_error e)

(* A cursor over immutable bytes. A nested length (an attribute, the
   withdrawn-routes field) narrows [limit] in place and widens it back,
   so a parse allocates no sub-reader. *)
type reader = { data : string; mutable pos : int; mutable limit : int }

let need rd n = if rd.pos + n > rd.limit then fail Truncated

let r8 rd =
  need rd 1;
  let v = Char.code (String.unsafe_get rd.data rd.pos) in
  rd.pos <- rd.pos + 1;
  v

let r16 rd =
  let a = r8 rd in
  let b = r8 rd in
  (a lsl 8) lor b

let r32 rd =
  let a = r16 rd in
  let b = r16 rd in
  (a lsl 16) lor b

let r_addr rd = Ipv4.of_int (r32 rd)

let r_prefix_len rd =
  let len = r8 rd in
  if len > 32 then fail (Bad_attribute "prefix length > 32");
  len

let r_prefix rd =
  let len = r_prefix_len rd in
  let a = ref 0 in
  for i = 0 to prefix_byte_len len - 1 do
    a := !a lor (r8 rd lsl (24 - (8 * i)))
  done;
  Prefix.make (Ipv4.of_int !a) len

let r_nlri rd ~add_paths =
  let path_id = if add_paths then r32 rd else 0 in
  let p = r_prefix rd in
  (p, path_id)

type raw_attrs = {
  mutable origin : Origin.t option;
  mutable as_path : As_path.t;
  mutable next_hop : Ipv4.t option;
  mutable med : int option;
  mutable local_pref : int option;
  mutable originator_id : Ipv4.t option;
  mutable cluster_list : Ipv4.t list;
  mutable communities : Community.t list;
  mutable ext_communities : Ext_community.t list;
}

let[@tail_mod_cons] rec r_asns rd n =
  if n = 0 then []
  else
    let a = Asn.of_int (r32 rd) in
    a :: r_asns rd (n - 1)

(* Items of a list attribute up to the attribute's end. *)
let[@tail_mod_cons] rec r_until rd f =
  if rd.pos >= rd.limit then []
  else
    let x = f rd in
    x :: r_until rd f

let r_community rd = Community.of_int32_bits (r32 rd)

let r_ext_community rd =
  let typ = r8 rd in
  let subtyp = r8 rd in
  let hi = r16 rd in
  let lo = r32 rd in
  Ext_community.make ~typ ~subtyp ~value:((hi lsl 32) lor lo)

let[@tail_mod_cons] rec r_segments rd =
  if rd.pos >= rd.limit then []
  else
    let code = r8 rd in
    let count = r8 rd in
    let asns = r_asns rd count in
    let seg =
      match code with
      | 1 -> As_path.Set asns
      | 2 -> As_path.Seq asns
      | 3 -> As_path.Confed_seq asns
      | 4 -> As_path.Confed_set asns
      | n -> fail (Bad_attribute (Printf.sprintf "AS path segment type %d" n))
    in
    seg :: r_segments rd

(* The path attributes from [rd.pos] to [rd.limit]. *)
let decode_attrs rd =
  let acc =
    {
      origin = None;
      as_path = As_path.empty;
      next_hop = None;
      med = None;
      local_pref = None;
      originator_id = None;
      cluster_list = [];
      communities = [];
      ext_communities = [];
    }
  in
  let limit = rd.limit in
  while rd.pos < limit do
    let flags = r8 rd in
    let typ = r8 rd in
    let len = if flags land 0x10 <> 0 then r16 rd else r8 rd in
    need rd len;
    let attr_end = rd.pos + len in
    rd.limit <- attr_end;
    (match typ with
    | 1 -> (
      match Origin.of_code (r8 rd) with
      | Some o -> acc.origin <- Some o
      | None -> fail (Bad_attribute "origin code"))
    | 2 -> acc.as_path <- As_path.of_segments (r_segments rd)
    | 3 -> acc.next_hop <- Some (r_addr rd)
    | 4 -> acc.med <- Some (r32 rd)
    | 5 -> acc.local_pref <- Some (r32 rd)
    | 8 -> acc.communities <- r_until rd r_community
    | 9 -> acc.originator_id <- Some (r_addr rd)
    | 10 -> acc.cluster_list <- r_until rd r_addr
    | 16 -> acc.ext_communities <- r_until rd r_ext_community
    | _ when flags land flag_optional <> 0 -> () (* skip unknown optional *)
    | n -> fail (Bad_attribute (Printf.sprintf "unknown well-known attribute %d" n)));
    rd.limit <- limit;
    rd.pos <- attr_end
  done;
  acc

(* Intern the block an announcement carries. *)
let block_of acc =
  match (acc.origin, acc.next_hop) with
  | Some origin, Some next_hop ->
    Route.make_attrs ~origin ~as_path:acc.as_path ~med:acc.med
      ~local_pref:(Option.value ~default:Route.default_local_pref acc.local_pref)
      ~originator_id:acc.originator_id ~cluster_list:acc.cluster_list
      ~communities:acc.communities ~ext_communities:acc.ext_communities ~next_hop ()
  | None, _ -> fail (Bad_attribute "missing ORIGIN on announcement")
  | _, None -> fail (Bad_attribute "missing NEXT_HOP on announcement")

(* The attribute section of an UPDATE body: its length, then the
   attributes, leaving [rd] just past them. *)
let r_attr_section rd =
  let attr_len = r16 rd in
  need rd attr_len;
  let limit = rd.limit in
  let attr_end = rd.pos + attr_len in
  rd.limit <- attr_end;
  let attrs = decode_attrs rd in
  rd.limit <- limit;
  attrs

let decode_update rd ~add_paths =
  let wd_len = r16 rd in
  need rd wd_len;
  let limit = rd.limit in
  rd.limit <- rd.pos + wd_len;
  let withdrawn = ref [] in
  while rd.pos < rd.limit do
    let p, path_id = r_nlri rd ~add_paths in
    withdrawn := { Msg.prefix = p; path_id } :: !withdrawn
  done;
  rd.limit <- limit;
  let attrs = r_attr_section rd in
  let announced = ref [] in
  (* Intern the attribute block once per UPDATE: every announced NLRI
     shares it, so decoding N prefixes allocates N heads, one block. *)
  if rd.pos < rd.limit then begin
    let block = block_of attrs in
    while rd.pos < rd.limit do
      let p, path_id = r_nlri rd ~add_paths in
      announced := Route.of_attrs ~path_id ~prefix:p block :: !announced
    done
  end;
  Msg.Update { withdrawn = List.rev !withdrawn; announced = List.rev !announced }

let decode_open rd =
  let version = r8 rd in
  if version <> 4 then fail (Bad_capability (Printf.sprintf "version %d" version));
  let asn16 = r16 rd in
  let hold_time = r16 rd in
  let bgp_id = r_addr rd in
  let params_len = r8 rd in
  need rd params_len;
  let params_end = rd.pos + params_len in
  let prd = { rd with limit = params_end } in
  let asn = ref asn16 in
  let add_paths = ref false in
  while prd.pos < prd.limit do
    let ptype = r8 prd in
    let plen = r8 prd in
    need prd plen;
    let pend = prd.pos + plen in
    if ptype = 2 then (
      let crd = { prd with limit = pend } in
      while crd.pos < crd.limit do
        let code = r8 crd in
        let clen = r8 crd in
        need crd clen;
        let cend = crd.pos + clen in
        (match code with
        | 65 when clen = 4 -> asn := r32 crd
        | 69 -> add_paths := true
        | _ -> ());
        crd.pos <- cend
      done);
    prd.pos <- pend
  done;
  rd.pos <- params_end;
  Msg.Open { asn = Asn.of_int !asn; hold_time; bgp_id; add_paths = !add_paths }

(* The header of the message at [pos], checked: the reader over its
   body. The type is the byte at [pos + 18]. *)
let header data ~pos ~total =
  if pos + header_size > total then fail Truncated;
  for i = 0 to 15 do
    if String.get data (pos + i) <> '\xFF' then fail Bad_marker
  done;
  let len =
    (Char.code (String.get data (pos + 16)) lsl 8)
    lor Char.code (String.get data (pos + 17))
  in
  if len < header_size || len > max_message_size then fail (Bad_length len);
  if pos + len > total then fail Truncated;
  { data; pos = pos + header_size; limit = pos + len }

let decode ~add_paths data ~pos =
  try
    let data = Bytes.unsafe_to_string data in
    let rd = header data ~pos ~total:(String.length data) in
    let typ = Char.code data.[pos + 18] in
    let msg =
      if typ = msg_type_open then decode_open rd
      else if typ = msg_type_update then decode_update rd ~add_paths
      else if typ = msg_type_keepalive then Msg.Keepalive
      else if typ = msg_type_notification then (
        let code = r8 rd in
        let subcode = r8 rd in
        let data = String.sub rd.data rd.pos (rd.limit - rd.pos) in
        Msg.Notification { code; subcode; data })
      else fail (Bad_type typ)
    in
    Ok (msg, rd.limit)
  with Decode_error e -> Error e

let decode_all ~add_paths data =
  let total = Bytes.length data in
  let rec go pos acc =
    if pos >= total then Ok (List.rev acc)
    else
      match decode ~add_paths data ~pos with
      | Ok (msg, pos') -> go pos' (msg :: acc)
      | Error e -> Error e
  in
  go 0 []

(* --- single-route entries ------------------------------------------ *)

let attrs_entry_size a = header_size + 2 + 2 + Route.wire_len a + 5

let write_attrs_entry a b pos =
  let n = attrs_entry_size a in
  if n > max_message_size then
    invalid_arg "Wire.write_attrs_entry: the block does not fit one UPDATE";
  Bytes.fill b pos 16 '\xFF';
  let pos = put8 b (put16 b (pos + 16) n) msg_type_update in
  let pos = put16 b (put16 b pos 0) (Route.wire_len a) in
  let pos = write_attrs a b pos in
  (* add-paths NLRI: path id 0, the default prefix (length 0, no bytes) *)
  ignore (put8 b (put32 b pos 0) 0)

let read_attrs_entry s ~pos ~len =
  try
    if pos < 0 || len < 0 || pos + len > String.length s then fail Truncated;
    let rd = header s ~pos ~total:(pos + len) in
    if rd.limit <> pos + len then fail (Bad_length (rd.limit - pos));
    let typ = Char.code s.[pos + 18] in
    if typ <> msg_type_update then fail (Bad_type typ);
    if r16 rd <> 0 then fail (Bad_attribute "withdrawn routes in a single-route entry");
    let block = block_of (r_attr_section rd) in
    let _path_id = r32 rd in
    let n = prefix_byte_len (r_prefix_len rd) in
    need rd n;
    rd.pos <- rd.pos + n;
    if rd.pos <> rd.limit then fail (Bad_attribute "more than one route in the entry");
    Ok block
  with Decode_error e -> Error e
