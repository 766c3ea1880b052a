open Netaddr
open Eventsim

type cluster = { trrs : int list; clients : int list }
type tbrr_spec = {
  clusters : cluster list;
  multipath : bool;
  best_external : bool;
}
type loop_prevention = Reflected_bit | Cluster_list

type abrr_spec = {
  mutable partition : Partition.t;
  mutable arrs : int list array;
  loop_prevention : loop_prevention;
}

type confed_spec = {
  sub_as_of : int array;
  confed_links : (int * int) list;
}

type acceptance = Accept_tbrr | Accept_abrr

type scheme =
  | Full_mesh
  | Tbrr of tbrr_spec
  | Abrr of abrr_spec
  | Confed of confed_spec
  | Rcp of { rcps : int list }
  | Dual of { tbrr : tbrr_spec; abrr : abrr_spec; accept : acceptance array }

type decision = Incremental | Naive

type t = {
  n_routers : int;
  asn : Bgp.Asn.t;
  igp : Igp.Graph.t;
  scheme : scheme;
  med_mode : Bgp.Decision.med_mode;
  mrai : Time.t;
  link_delay : int -> int -> Time.t;
  proc_delay : Time.t;
  proc_jitter : Time.t;
  store_full_sets : bool;
  control_plane_rrs : bool;
  decision : decision;
  damping : Bgp.Damping.params option;
}

let proc_delay_of t i =
  if t.proc_jitter = Time.zero then t.proc_delay
  else t.proc_delay + (((i * 2_654_435_761) land 0x3FFF_FFFF) mod t.proc_jitter)

let default_link_delay src dst =
  Time.us (1_000 + (((src * 31) + (dst * 17)) mod 7 * 100))

let make ?(asn = Bgp.Asn.of_int 65000) ?(med_mode = Bgp.Decision.Per_neighbor_as)
    ?(mrai = Time.zero) ?(link_delay = default_link_delay)
    ?(proc_delay = Time.ms 1) ?(proc_jitter = Time.zero)
    ?(store_full_sets = false)
    ?(control_plane_rrs = false) ?(decision = Incremental) ?damping ~n_routers
    ~igp ~scheme () =
  {
    n_routers;
    asn;
    igp;
    scheme;
    med_mode;
    mrai;
    link_delay;
    proc_delay;
    proc_jitter;
    store_full_sets;
    control_plane_rrs;
    decision;
    damping;
  }

let tbrr ?(multipath = false) ?(best_external = false) clusters =
  Tbrr { clusters; multipath; best_external }

let abrr ?(loop_prevention = Reflected_bit) ~partition arrs =
  Abrr { partition; arrs; loop_prevention }

let confed ~sub_as_of ~confed_links = Confed { sub_as_of; confed_links }
let rcp rcps = Rcp { rcps }
let member_asn i = Bgp.Asn.of_int (64512 + i)

let loopback i = Ipv4.of_int (0x0A00_0000 + i)

let loopback_index t a =
  let i = Ipv4.to_int a - 0x0A00_0000 in
  if i >= 0 && i < t.n_routers then i else -1

let router_of_loopback t a =
  let i = loopback_index t a in
  if i < 0 then None else Some i

let cluster_id c = Ipv4.of_int (0xC0A8_0000 + c)

let add_paths t =
  match t.scheme with
  | Full_mesh | Confed _ | Rcp _ -> false
  | Tbrr s -> s.multipath
  | Abrr _ | Dual _ -> true

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_router label i k =
    if i < 0 || i >= t.n_routers then fail "%s: router %d out of range" label i
    else k ()
  in
  let rec check_all label ids k =
    match ids with
    | [] -> k ()
    | i :: rest -> check_router label i (fun () -> check_all label rest k)
  in
  let check_tbrr (s : tbrr_spec) k =
    if s.clusters = [] then fail "TBRR: no clusters"
    else
      let rec go = function
        | [] -> k ()
        | c :: rest ->
          if c.trrs = [] then fail "TBRR: cluster without reflectors"
          else
            check_all "TBRR trr" c.trrs (fun () ->
                check_all "TBRR client" c.clients (fun () ->
                    if List.exists (fun x -> List.mem x c.trrs) c.clients then
                      fail "TBRR: router is both TRR and client of one cluster"
                    else go rest))
      in
      go s.clusters
  in
  let check_abrr (s : abrr_spec) k =
    if Array.length s.arrs <> Partition.count s.partition then
      fail "ABRR: arrs array length %d does not match partition size %d"
        (Array.length s.arrs)
        (Partition.count s.partition)
    else
      let rec go ap =
        if ap >= Array.length s.arrs then k ()
        else if s.arrs.(ap) = [] then fail "ABRR: AP %d has no ARRs" ap
        else check_all "ABRR arr" s.arrs.(ap) (fun () -> go (ap + 1))
      in
      go 0
  in
  if t.n_routers < 1 then fail "need at least one router"
  else if Igp.Graph.node_count t.igp <> t.n_routers then
    fail "IGP graph has %d nodes but n_routers = %d"
      (Igp.Graph.node_count t.igp) t.n_routers
  else
    match t.scheme with
    | Full_mesh -> Ok ()
    | Tbrr s -> check_tbrr s (fun () -> Ok ())
    | Abrr s -> check_abrr s (fun () -> Ok ())
    | Rcp { rcps } ->
      if rcps = [] then fail "RCP: need at least one control node"
      else
        let rec all = function
          | [] -> Ok ()
          | r :: rest ->
            if r < 0 || r >= t.n_routers then fail "RCP: node %d out of range" r
            else all rest
        in
        all rcps
    | Confed s ->
      if Array.length s.sub_as_of <> t.n_routers then
        fail "Confed: sub_as_of length %d does not match n_routers %d"
          (Array.length s.sub_as_of) t.n_routers
      else if Array.exists (fun x -> x < 0) s.sub_as_of then
        fail "Confed: negative sub-AS index"
      else
        let rec links = function
          | [] -> Ok ()
          | (a, b) :: rest ->
            if a < 0 || a >= t.n_routers || b < 0 || b >= t.n_routers then
              fail "Confed: link endpoint out of range"
            else if s.sub_as_of.(a) = s.sub_as_of.(b) then
              fail "Confed: link %d-%d joins the same sub-AS" a b
            else links rest
        in
        links s.confed_links
    | Dual { tbrr; abrr; accept } ->
      if Array.length accept <> Partition.count abrr.partition then
        fail "Dual: acceptance array length mismatch"
      else check_tbrr tbrr (fun () -> check_abrr abrr (fun () -> Ok ()))
