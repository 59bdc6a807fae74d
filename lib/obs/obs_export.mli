(** Renderers from the observability layer's in-memory forms to external
    tool formats: folded stacks for flamegraphs, Prometheus text
    exposition for metrics — each paired with a validator for the exact
    grammar it emits, so tests can round-trip outputs instead of
    eyeballing them. *)

(** {1 Folded stacks}

    One line per distinct call path: [root;child;leaf 1234], weight in
    integer microseconds of {e self} time (total minus children) —
    directly consumable by [flamegraph.pl] and speedscope. *)

val folded_of_spans : Obs_span.span list -> string list
(** Aggregate self time per call path. Frame names are sanitized
    ([;] and whitespace become [_]); lines are sorted by path;
    zero-weight paths are kept, so the {e set} of stacks is
    deterministic even though the weights are wall time. *)

val validate_folded : string list -> (int, string) result
(** Check every line is [stack space integer] with non-empty
    [;]-separated frames and a non-negative weight; returns the line
    count. The error names the first offending 1-based line. *)

val spans_of_chrome : Jsonx.t -> (Obs_span.span list, string) result
(** Rebuild a span list from a Chrome trace ({!Obs_span.to_chrome_json}
    output, validated with {!Obs_span.validate_chrome} first). Parents
    are reconstructed from the depth sequence: events are in creation
    order and nest strictly, so a depth-[d] span's parent is the most
    recent depth-[d-1] span. This is how [cstrace flame] turns a
    profile file back into {!folded_of_spans} input. *)

(** {1 Prometheus text exposition}

    Counters become [<ns>_<name>_total] counter families, gauges become
    gauges, histograms become summaries with [quantile="0.5"/"0.95"/
    "0.99"] series plus [_sum] and [_count]. Metric names are sanitized
    to [[a-zA-Z0-9_:]]; non-finite values render as [NaN] / [+Inf] /
    [-Inf] per the text-format grammar. Every family gets [# HELP] and
    [# TYPE] lines. *)

val prometheus : ?namespace:string -> Obs_metrics.t -> string list
(** Render a registry ([namespace] defaults to ["cs"]). Lines are
    in name order within each instrument class. *)

val validate_prometheus : string list -> (int, string) result
(** Check the lines against the exposition grammar: well-formed
    [# HELP] / [# TYPE] comments, known types, metric and label names
    matching [[a-zA-Z_:][a-zA-Z0-9_:]*], label values with well-formed
    backslash escapes (scanned escape-aware, so escaped quotes and
    commas inside values are handled), parsable values, and every
    sample preceded by a [# TYPE] for its family ([_sum] / [_count]
    resolve to their summary's family). Returns the sample count (not
    counting comments). The error names the first offending 1-based
    line. *)
