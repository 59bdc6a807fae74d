(** A hierarchical span profiler: begin/end intervals on a monotonic
    clock, with nesting, per-span attributes, and a Chrome trace-event
    exporter.

    Where {!Trace_report} answers "how often / how long in simulated
    time" and {!Obs_event} answers "what happened when", a span
    recorder answers {e where wall time goes} inside one call — which
    phase of [Guideline.plan] dominates, how the [Optimizer] sweeps
    scale, what a [Monte_carlo] batch costs. Spans nest strictly (a
    stack), so a recorder captures one thread of execution; the repo is
    single-domain, which is exactly the shape we need.

    {2 Overhead discipline}

    A recorder only exists when profiling was requested ({!Obs.t} carries
    it as an [option]); instrumented hot paths hoist
    [Obs.span_recorder obs] once and skip every span call when it is
    [None], so the disabled cost is one branch — the same budget as the
    rest of the observability layer, pinned by the [bench/] episode-run
    variants. When enabled, {!enter}/{!exit} cost two clock reads and one
    record each; completed spans go into a preallocated growable buffer
    (no per-span hashing, no I/O until export).

    {2 Export}

    {!to_chrome_json} renders the Chrome trace-event format (JSON Array
    Format with ["X"] complete events, timestamps in microseconds) — the
    file loads directly in [about://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}. {!Trace_report.span_tree} folds the same spans into a
    self-time/total-time call tree for terminal consumption. *)

type span = {
  id : int;  (** Creation order, 0-based; also the chronological order. *)
  parent : int;  (** [id] of the enclosing span, or [-1] for roots. *)
  depth : int;  (** Nesting depth, [0] for roots. *)
  name : string;
  start_us : float;  (** Microseconds since the recorder was created. *)
  dur_us : float;
  attrs : (string * Jsonx.t) list;
      (** Enter attributes followed by exit attributes, in call order. *)
}

type t
(** A recorder: an open-span stack plus a buffer of completed spans. *)

val create : ?max_spans:int -> unit -> t
(** [create ()] is an empty recorder. [max_spans] (default [1_000_000])
    bounds the completed-span buffer: once reached, further completed
    spans are counted in {!dropped} instead of stored, so a runaway loop
    degrades the profile rather than memory. Requires [max_spans > 0]. *)

val enter : ?attrs:(string * Jsonx.t) list -> t -> string -> unit
(** Open a span named [name] as a child of the innermost open span. *)

val exit : ?attrs:(string * Jsonx.t) list -> t -> unit
(** Close the innermost open span, appending [attrs] to the ones given
    at {!enter}. @raise Invalid_argument when no span is open (an
    unbalanced [exit] is an instrumentation bug worth failing loudly
    on). *)

val record : ?attrs:(string * Jsonx.t) list -> t -> string -> (unit -> 'a) -> 'a
(** [record t name f] is [enter t name; f ()] with a guaranteed matching
    {!exit}, also on exceptions. *)

val open_depth : t -> int
(** Number of currently open spans. *)

val count : t -> int
(** Completed spans stored (excludes {!dropped}). *)

val dropped : t -> int
(** Completed spans discarded after the buffer filled. *)

val max_depth : t -> int
(** Deepest nesting observed so far, as a level count: a lone root span
    is depth [1], a child of a child is [3]; [0] before any {!enter}. *)

val spans : t -> span list
(** Completed spans in creation (= start-time) order. Open spans are not
    included; close them before exporting. *)

val absorb : t -> t -> unit
(** [absorb t src] grafts every completed span of [src] into [t] as
    descendants of [t]'s innermost open span (or as roots when none is
    open): ids are rebased, depths shifted, and timestamps re-expressed
    against [t]'s epoch, so the merged recorder exports one consistent
    Chrome trace. [src]'s dropped count carries over; [src] itself is
    left untouched and must have no open spans ([Invalid_argument]
    otherwise). This is how the parallel execution layer merges the
    per-chunk recorders of worker domains back into the caller's
    profile, in chunk-index order. *)

val to_chrome_json : t -> Jsonx.t
(** The completed spans in Chrome trace-event JSON Array Format:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] where each event is
    [{"name", "cat": "cs", "ph": "X", "ts", "dur", "pid": 1, "tid": 1,
    "args"}] with [ts]/[dur] in microseconds and the span's attributes
    (plus its ["depth"]) under ["args"]. Loadable in [about://tracing] /
    Perfetto as-is. *)

val validate_chrome : Jsonx.t -> (int * int, string) result
(** [validate_chrome j] checks that [j] has the exact shape
    {!to_chrome_json} produces — the shape contract the cram tests pin —
    and returns [(events, max_depth_levels)] on success. The error names
    the first offending event index and field. *)
