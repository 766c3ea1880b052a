(** Diagnostic report assembled by the static analyzer and the runtime
    invariant checker: a flat list of findings, each attributed to a
    named check and carrying a stable machine-readable code, rendered as
    a {!Metrics.Table} or as JSON (for [abrr_sim check --json] /
    [abrr_sim lint --json]). *)

type severity = Pass | Warn | Fail

type finding = {
  check : string;
  code : string;
  severity : severity;
  detail : string;
}
(** [check] is a dotted identifier, e.g. ["ap.coverage"] or
    ["signaling.tbrr-hierarchy"]. [code] is a stable SCREAMING-KEBAB
    identifier such as ["AP-GAP"], ["SIG-UNREACH"] or ["OSC-MED"];
    passing findings use ["OK"]. Codes are part of the tool's output
    contract — renaming one is a breaking change. *)

type t = finding list

val pass : ?code:string -> string -> ('a, unit, string, finding) format4 -> 'a
val warn : ?code:string -> string -> ('a, unit, string, finding) format4 -> 'a
val fail : ?code:string -> string -> ('a, unit, string, finding) format4 -> 'a
(** [fail ~code check fmt ...] builds one finding with a formatted
    detail. When [code] is omitted it defaults to ["OK"] / ["WARN"] /
    ["FAIL"] by severity. *)

val ok : t -> bool
(** No [Fail] finding. [Warn]s do not fail a report. *)

val clean : t -> bool
(** Neither [Fail] nor [Warn]. *)

val failures : t -> finding list
val count : severity -> t -> int

val by_code : string -> t -> finding list
(** All findings carrying a given stable code. *)

val summary : t -> string
(** e.g. ["11 checks: 9 pass, 1 warn, 1 FAIL"]. *)

val render : t -> string
(** Monospace table of every finding plus the summary line. *)

val to_json : t -> Metrics.Emit.json
(** [{"summary": {...}, "findings": [{check; code; severity; detail}]}] —
    the machine-readable form behind [--json]. *)

val pp : Format.formatter -> t -> unit
