(** Declarative health rules (SLOs) over a metric snapshot.

    A rule is one line of text — [SEVERITY SELECTOR OP VALUE] — and a
    rule set is evaluated against one {!Obs_metrics.snapshot}, such as
    the registry {!Obs_query.metrics_of_events} builds from a finished
    trace ([cstrace check]). The result is a typed verdict report.

    {2 Grammar}

    One rule per line; blank lines and [#] comments are ignored.

    {v
    rule     ::= severity selector op value
    severity ::= "warn" | "critical"
    selector ::= metric-name [ "." stat ] [ "?" ]
    stat     ::= "count" | "sum" | "mean" | "min" | "max"
               | "p50" | "p95" | "p99"
    op       ::= "<" | "<=" | ">" | ">=" | "==" | "!="
    value    ::= float literal, not nan
    v}

    A bare counter selector reads its count, a bare gauge its value, a
    bare histogram its mean; [base.stat] reads one summary field of
    histogram [base] ([counter.count] is also accepted). A trailing
    [?] marks the rule optional: a selector that does not resolve is
    then [Skipped] rather than [Missing], which lets one rules file
    serve traces that carry different series — [trace.pool_remaining],
    for one, exists only in traces whose task pool drained.
    Gauge/histogram values that are [nan] (never set / empty) do not
    resolve.

    {2 Semantics}

    The rule asserts the selected value satisfies [value OP threshold];
    a violation fails the rule, recording the offending value.
    [==]/[!=] use {!Tol.exactly}. A non-optional selector that does
    not resolve is [Missing], which counts as a warn-level failure. *)

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
  | Fail of { value : float }
  | Missing  (** non-optional selector did not resolve *)
  | Skipped  (** optional selector did not resolve *)

type verdict = Healthy | Unhealthy of severity

type report = {
  outcomes : (rule * status) list;  (** in rule order *)
  verdict : verdict;
}

val parse_rule : string -> (rule, string) result
(** Parse one rule line (used for [--rule] CLI flags). *)

val parse : string -> (rule list, string) result
(** Parse a whole [.cshealth] document; errors carry 1-based line
    numbers. An empty document is [Ok []]. A [nan] threshold is a
    parse error. *)

val resolve : Obs_metrics.snapshot -> string -> float option
(** [resolve snap selector] is the selected value, when present and
    finite enough to compare (see grammar above). *)

val evaluate : rules:rule list -> Obs_metrics.snapshot -> report
(** Evaluate every rule against the snapshot. *)

val exit_code : report -> int
(** [0] healthy, [1] warn-level failures only, [2] any critical
    failure — the [cstrace check] exit convention. *)

val pp_op : Format.formatter -> op -> unit

val pp_rule : Format.formatter -> rule -> unit
(** The rule as one line of the grammar above; {!parse_rule} reads it
    back to an equal rule. The threshold prints as [%g] when that reads
    back as the same float ([20], [5e+08]) and in {!Jsonx.shortest_g}
    form otherwise ([1234567], and [0.30000000000000004] for
    [0.1 +. 0.2]). *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic human-readable listing, one rule per line
    ([\[PASS\]]/[\[FAIL\]]/[\[MISS\]]/[\[SKIP\]]), then a final
    [verdict:] line. A failing rule's value prints in the threshold's
    form, so it reads back as the same float. *)

val verdict_to_string : verdict -> string
(** ["ok"], ["warn"] or ["critical"]. *)

val report_to_json : report -> Jsonx.t
(** Machine-readable verdict: [{"v":1,"verdict":...,"rules":[...]}]
    for the [--json] flag and CI artifacts. *)
