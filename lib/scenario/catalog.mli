(** The scenario catalog: adversarial workloads (prefix hijack, route
    leak, persistent flapping vs. damping, session resets under load)
    and ABRR operational drills (ARR failure with AP takeover, live
    repartitioning, the §2.4 TBRR→ABRR migration), each built from the
    shared synthetic Tier-1 topology and route table and scored by the
    {!Engine}. *)

open Eventsim

type spec = {
  pops : int;
  routers_per_pop : int;
  peer_ases : int;
  peering_points_per_as : int;
  prefixes : int;
  aps : int;
  arrs_per_ap : int;  (** >= 2 enables the ARR-failover drill *)
  mrai : Time.t;
  seed : int;
}

val spec :
  ?pops:int ->
  ?routers_per_pop:int ->
  ?peer_ases:int ->
  ?peering_points_per_as:int ->
  ?prefixes:int ->
  ?aps:int ->
  ?arrs_per_ap:int ->
  ?mrai:Time.t ->
  ?seed:int ->
  unit ->
  spec
(** Defaults: 8 PoPs x 6 routers, 15 peer ASes x 6 points, 120 prefixes,
    8 APs x 2 ARRs, MRAI off, seed 7 — the test-scale shape; the CI
    catalog gate passes the paper-scale 42 x 24. *)

type env
(** The shared workload: generated topology + route table. Build once,
    run many scenarios against it (each scenario creates its own fresh
    network). *)

val env : spec -> env

val names : string list
(** Catalog order: ["hijack"; "leak"; "flap-damping"; "session-reset";
    "arr-failover"; "repartition"; "migration"]. *)

val run : env -> scheme:string -> string -> Engine.result
(** Run one scenario by name under a scheme label (["abrr"], ["tbrr"],
    ["mesh"], ["confed"], ["rcp"]). The ABRR drills (["arr-failover"],
    ["repartition"], ["migration"]) ignore the scheme argument: the
    first two are ABRR by construction, the migration runs Dual.
    @raise Invalid_argument on an unknown scenario or scheme. *)

val run_all : ?only:string list -> env -> scheme:string -> Engine.result list
(** The whole catalog (or the [only] subset), in catalog order. *)
