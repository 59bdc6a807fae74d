(** Declarative health rules (SLOs) over metric snapshots.

    A rule is one line of text — [SEVERITY SELECTOR OP VALUE] — and a
    rule set is evaluated against a sequence of {!Obs_metrics.snapshot}
    values: the single end-of-run snapshot of a live registry, every
    frame of a snapshot ring, or the synthetic registry
    {!Obs_query.metrics_of_events} builds from a finished trace. The
    result is a typed verdict report that [cstrace check],
    [cstrace collect] and [csctl --health] all share.

    {2 Grammar}

    One rule per line; blank lines and [#] comments are ignored.

    {v
    rule     ::= severity selector op value
    severity ::= "warn" | "critical"
    selector ::= metric-name [ "." stat ] [ "?" ]
    stat     ::= "count" | "sum" | "mean" | "min" | "max"
               | "p50" | "p95" | "p99"
    op       ::= "<" | "<=" | ">" | ">=" | "==" | "!="
    value    ::= float literal
    v}

    A bare counter selector reads its count, a bare gauge its value, a
    bare histogram its mean; [base.stat] reads one summary field of
    histogram [base] ([counter.count] is also accepted). A trailing
    [?] marks the rule optional: a selector that resolves in no
    snapshot is then [Skipped] rather than [Missing], which lets one
    rules file serve both trace-derived ([trace.*]) and in-process
    ([gc.*], [pool.*]) metric sources. Gauge/histogram values that are
    [nan] (never set / empty) do not resolve.

    {2 Semantics}

    The rule asserts the selected value satisfies [value OP threshold]
    in {e every} snapshot where the selector resolves; the first
    violation fails the rule, recording the offending value and the
    snapshot's trial index when it has one. [==]/[!=] use
    {!Tol.exactly}. A non-optional selector resolving nowhere is
    [Missing], which counts as a warn-level failure. *)

type severity = Warn | Critical

type op = Lt | Le | Gt | Ge | Eq | Ne

type rule = {
  severity : severity;
  selector : string;  (** without any trailing [?] *)
  optional : bool;
  op : op;
  threshold : float;
}

type status =
  | Pass
  | Fail of { value : float; at : int option }
  | Missing  (** selector resolved in no snapshot (non-optional) *)
  | Skipped  (** optional selector resolved in no snapshot *)

type verdict = Healthy | Unhealthy of severity

type report = {
  outcomes : (rule * status) list;  (** in rule order *)
  verdict : verdict;
  entries : int;  (** number of snapshots evaluated *)
}

val parse_rule : string -> (rule, string) result
(** Parse one rule line (used for [--rule] CLI flags). *)

val parse : string -> (rule list, string) result
(** Parse a whole [.cshealth] document; errors carry 1-based line
    numbers. An empty document is [Ok []]. *)

val resolve : Obs_metrics.snapshot -> string -> float option
(** [resolve snap selector] is the selected value, when present and
    finite enough to compare (see grammar above). *)

val evaluate :
  rules:rule list -> (int option * Obs_metrics.snapshot) list -> report
(** Evaluate every rule over the snapshot sequence. The [int option] is
    the snapshot's trial index ([Obs_snapshot] ring position) or [None]
    for a single end-of-run snapshot. *)

val exit_code : report -> int
(** [0] healthy, [1] warn-level failures only, [2] any critical
    failure — the [cstrace check] exit convention. *)

val pp_op : Format.formatter -> op -> unit
val pp_rule : Format.formatter -> rule -> unit

val pp_report : Format.formatter -> report -> unit
(** Deterministic human-readable listing, one rule per line
    ([\[PASS\]]/[\[FAIL\]]/[\[MISS\]]/[\[SKIP\]]), then a final
    [verdict:] line. *)

val verdict_to_string : verdict -> string
(** ["ok"], ["warn"] or ["critical"]. *)

val report_to_json : report -> Jsonx.t
(** Machine-readable verdict: [{"v":1,"verdict":...,"entries":...,
    "rules":[...]}] for the [--json] flag and CI artifacts. *)
