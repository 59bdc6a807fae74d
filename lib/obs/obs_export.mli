(** The span profile in an external tool's format: folded stacks for
    flamegraphs, paired with a validator for the exact grammar emitted,
    so tests round-trip the output instead of eyeballing it, and with
    the reader that turns a Chrome trace file back into spans. A run's
    event trace needs no export: {!Trace_report} folds it. *)

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
