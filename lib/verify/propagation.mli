(** Symbolic route propagation: a static dataflow analysis over the iBGP
    signaling graph.

    Each router is a dataflow node whose abstract state is the set of
    route classes it currently advertises on each signaling channel
    (client advert, TRR reflection sets, ARR best-AS-level set, RCP
    per-client picks, confed exports). A route class is a concrete
    {!Bgp.Route.t} as transmitted on the wire — NEXT_HOP identifies the
    egress point, the remaining attributes form the attribute class — so
    the abstract domain is exactly the simulator's message space and the
    per-scheme transfer functions can mirror
    {!Abrr_core.Router}'s export/reflection logic verbatim (same
    derivations, same RFC 4456 / §2.3.2 / RFC 5065 loop filters, same
    split-horizon rules, same decision kernel). The solver runs
    Gauss–Seidel chaotic iteration to a fixpoint; a revisited global
    state is a dispute cycle (the static analogue of
    {!Oscillation}'s mesh game, extended to every scheme), reported as
    {!Diverged}.

    On top of the fixpoint the module computes, per router and prefix:
    the {e learnable route classes} (every class the router's decision
    process can see, eligible or not), the delivered iBGP routes (what
    its Adj-RIB-Ins would hold at quiescence), its best route and egress
    choice — and compares them against the full-visibility reference
    (the best AS-level routes over all border adverts, and the
    full-mesh egress assignment) for static visibility, suboptimal-exit
    and deflection findings.

    The what-if {!delta} API re-solves incrementally: a link or router
    failure recomputes only the SPF rows whose shortest paths used the
    failed element and restarts the worklist from the affected nodes; an
    ARR failure or repartition re-solves only the prefixes whose
    covering APs / serving ARRs changed, reusing every other prefix's
    fixpoint unchanged. *)

open Netaddr

type injection = Oscillation.injection

type workload = injection list

type verdict =
  | Converged of { rounds : int }
  | Diverged of { period : int; start : int }
      (** the global advert state revisits round [start] every [period]
          rounds: a dispute cycle, no fixpoint under this activation
          order *)
  | Unresolved of string  (** iteration budget exhausted *)
  | Unsupported of string  (** scheme or configuration not analyzable *)

type stats = {
  node_evals : int;
      (** transfer-function evaluations performed (the solver's work
          measure — what the incremental path must beat) *)
  spf_rows : int;  (** SPF single-source computations *)
  prefixes_solved : int;
  prefixes_reused : int;
      (** prefixes whose previous fixpoint survived a delta untouched *)
}

type t

val solve : ?live:(int -> bool) -> Abrr_core.Config.t -> workload -> t
(** Solve the propagation fixpoint for every prefix of the workload.
    [live] masks failed routers (their injections, adverts and transit
    capacity disappear); default: everyone up. *)

val config : t -> Abrr_core.Config.t
val workload : t -> workload
val stats : t -> stats

val prefixes : t -> Prefix.t list

val verdict : t -> Prefix.t -> verdict

val learnable : t -> Prefix.t -> router:int -> Bgp.Route.t list
(** The router's learnable route classes for the prefix: every class its
    decision process receives (own eBGP routes included, IGP-ineligible
    ones included), normalized — path-id and reflection attributes
    stripped, NEXT_HOP preserved as the egress identity — and sorted.
    Empty on non-[Converged] prefixes. *)

val delivered : t -> Prefix.t -> router:int -> (int * Bgp.Route.t) list
(** iBGP routes the router holds at the fixpoint, as (sender, route)
    pairs in ascending sender order — the static mirror of
    {!Abrr_core.Router.received_set} over all senders (path-ids are 0;
    the simulator allocates real ones). *)

val exits : t -> Prefix.t -> int option array
(** Per-router egress router under the scheme ([None]: no route;
    borders using their own eBGP route exit at themselves). *)

val class_count : t -> int
(** Total learnable classes across routers and prefixes (scale metric). *)

(** {1 What-if deltas} *)

type delta =
  | Fail_link of int * int
  | Fail_router of int
  | Fail_arr of int  (** ABRR only: remove the router from every AP *)
  | Repartition of Abrr_core.Partition.t  (** ABRR only: new boundaries *)

val apply_delta : t -> delta -> (t, string) result
(** Re-solve incrementally from a previous result. The returned [stats]
    count only the delta's own work. [Error] on malformed deltas
    (unknown link, dead router, non-ABRR scheme, AP-count mismatch) and
    on deltas that make the configuration invalid. *)

val same_outcome : t -> t -> bool
(** Same per-prefix verdicts, best routes and exits — the equivalence a
    delta solve must share with the from-scratch solve of the same
    mutated network. *)

(** {1 Findings} *)

val findings : t -> Report.t
(** Aggregated findings: [prop.converge] (codes [OSC-MED] / [OSC-TOPO] /
    [PROP-UNRESOLVED] / [PROP-UNSUPPORTED]), [prop.visibility]
    ([VIS-HIDDEN]: a router cannot learn a best-AS-level class whose
    egress is elsewhere), [prop.exit] ([EXIT-SUBOPT]: egress differs
    from the full-visibility reference), [prop.fwd] ([FWD-LOOP]:
    inconsistent egress choices yield a forwarding loop), plus a
    [prop.summary] line with scale counters. *)

val check : ?live:(int -> bool) -> Abrr_core.Config.t -> workload -> Report.t
(** [findings (solve ?live config workload)]. *)
