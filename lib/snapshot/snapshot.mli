(** Versioned checkpoint/restore of complete simulation state.

    A snapshot captures everything a {!Abrr_core.Network} run is a
    function of past its creation point: per-router Adj-RIB-In/Out and
    Loc-RIB contents, session MRAI state, measurement counters, the
    simulated clock, the splitmix64 random stream, and the pending
    {e reified} event queue — so a checkpoint taken at {e any} event
    boundary resumes byte-identically, not just at quiescence.

    File format (big-endian, see [Codec]):
    {v
    "ABRRSNAP" | u16 version | config fingerprint (length-prefixed)
    | attribute table: u32 count, then each distinct interned block
      encoded once, length-prefixed, as a single-NLRI add-paths RFC 4271
      UPDATE (Bgp.Wire.write_attrs_entry / read_attrs_entry)
    | route table: u32 count, then each route as a small head —
      u32 attribute id | prefix key | path id — mirroring the
      in-memory head/block split; routes elsewhere are u32 ids into
      this table
    | body: sim scalars, rng word, event queue, per-router state,
      optional trace-sink ring
    | u32 CRC-32 of everything above
    v}

    Decoding rebuilds the physical sharing: every route head holding
    attribute id [i] points at the same interned block.

    Cost follows the bytes. The encoder makes two passes: the first
    dumps one router at a time into fixed-size body chunks, numbering
    routes by first use and then blocks by route id; the second writes
    the header, both tables and the chunks to a sink of known size,
    with a running CRC. The decoder checks the CRC of the whole input
    before trusting any length, parses attribute blocks in place and
    loads each router as soon as it is read.

    The encoding is {e canonical}: hash tables are dumped sorted by key
    and the route table is in first-use order of the (sorted) body, so
    two networks in the same logical state encode to identical bytes.
    {!digest} therefore makes state comparable across processes, which
    is what the divergence {!Bisect} leans on.

    What is {e not} captured: the {!Abrr_core.Config.t} itself (it holds
    function fields — the restoring caller rebuilds it, and decode
    checks a structural fingerprint), SPF distances (recomputed from the
    config), [on_best_change] hooks and invariant probes (closures —
    re-register after restore), and phase-timer accumulators (wall-clock
    observability, excluded from deterministic records; see
    OBSERVABILITY.md). A pending [Network.Thunk] event (a bare closure
    scheduled with [Network.at]) cannot be captured: {!encode} returns
    [Error _] — schedule [Network.at_op] operations instead. *)

val format_version : int

val fingerprint : Abrr_core.Config.t -> string
(** Structural summary of a config (router count, scheme shape, timer
    settings...). Stored in the snapshot and required to match at
    decode: restoring under a different configuration would silently
    diverge instead of failing. *)

val encode : Abrr_core.Network.t -> (string, string) result
(** Serialize the network's current state. [Error _] when a pending
    event is an opaque [Thunk] closure. *)

val decode : Abrr_core.Network.t -> string -> (unit, string) result
(** Restore state captured by {!encode} into a network freshly created
    from the same config (and scheme) the snapshot was taken under.
    Never raises on malformed input: truncation, bad magic/version,
    length-field lies, garbage attribute bytes, prefix keys, IPv4
    words and router indices no encoder writes, and CRC mismatches all
    return [Error _].

    Routers are loaded as they are read, so on [Error _] the network
    may be partly restored: discard it. A CRC, header or table error
    is found before any router is touched. *)

val save : Abrr_core.Network.t -> path:string -> (unit, string) result
(** The bytes of {!encode}, streamed to a file through one chunk-sized
    buffer instead of built in memory, atomically (write to
    [path ^ ".tmp"], then rename): a crash mid-checkpoint leaves the
    previous snapshot intact. *)

val load : Abrr_core.Network.t -> path:string -> (unit, string) result
(** Read a file and {!decode} it, with the same [Error] contract. I/O
    errors are [Error _] too. *)

val digest : Abrr_core.Network.t -> (string, string) result
(** Hex MD5 of the canonical {!encode} bytes — a cheap state
    fingerprint for divergence detection. Equal digests at event [k]
    mean the two runs are in identical states at [k]. *)

(** {1 Segment files}

    Naming convention for segmented long-trace runs
    ([abrr_sim bench --checkpoint-every] / [--resume-dir]): run
    [label], pause [k] lives at [dir/label.segk.snap]
    (label sanitized to filename-safe characters). *)

val segment_path : dir:string -> label:string -> int -> string

val latest_segment : dir:string -> label:string -> (int * string) option
(** Highest-numbered segment of [label] present in [dir], if any.
    [None] too when [dir] is unreadable. *)

(** Binary search for the first event index where two deterministic
    runs' states diverge. *)
module Bisect : sig
  val search :
    lo:int -> hi:int -> digest_a:(int -> string) -> digest_b:(int -> string) ->
    int option
  (** [search ~lo ~hi ~digest_a ~digest_b] assumes each [digest_*] is a
      pure function of its event index (run the simulation from scratch
      to index [k], digest the state) and that divergence is monotone:
      once states differ they never re-converge — which holds because a
      run's future is a function of its state. Returns [Some k] for the
      smallest [k] in [lo, hi] where the digests differ ([Some lo] if
      they already differ at [lo]), or [None] when identical through
      [hi]. Cost: O(log (hi - lo)) digest evaluations per side. *)
end
