(** The observability handle threaded through the simulation and
    scheduling layers.

    An [Obs.t] bundles an event {!Obs_sink} with an optional
    {!Obs_span} recorder. Instrumented functions take it as an optional
    [?obs] parameter defaulting to {!disabled}, so existing call sites
    compile (and behave) unchanged. The event trace is the one record of
    a run: its counts and distributions are folded back from it offline
    by {!Trace_report}, the numbers [cstrace report] prints and
    [cstrace check] judges, never kept live beside it. No event carries
    wall time, so the trace is a pure function of the run's inputs.

    {2 Overhead discipline}

    The disabled handle must cost ~one branch per hot-path call site.
    Instrumented code therefore hoists the activity test once:

    {[
      let trace = Obs.tracing obs in       (* events wanted? *)
      ...
      if trace then Obs.emit obs (Obs.Event.Period_completed { ... });
    ]}

    so that with [obs = disabled] (or a [Null] sink) no event is ever
    constructed — the [bench/] timing suite pins this budget. *)

module Metrics = Obs_metrics
module Event = Obs_event
module Sink = Obs_sink
module Span = Obs_span
module Meta = Obs_meta
module Resource = Obs_resource
module Health = Obs_health

type t

val disabled : t
(** No sink and no span recorder: {!tracing} is [false],
    {!span_recorder} is [None], every operation is a cheap no-op. The
    default everywhere. *)

val create : ?sink:Sink.t -> ?spans:Span.t -> unit -> t
(** [create ()] with no argument behaves like {!disabled}. *)

val tracing : t -> bool
(** [true] iff the sink consumes events ([Sink.Null] does not). Hoist
    this test and guard event {e construction} with it. *)

val span_recorder : t -> Span.t option
(** The attached span recorder. Hot paths hoist this once and call
    {!Obs_span} directly when it is [Some]; cooler paths use {!span}. *)

val instrumented : t -> bool
(** Whether any observation work is wanted at all (a consuming sink or
    a span recorder attached). *)

val emit : t -> Event.t -> unit
(** Deliver one event; no-op unless {!tracing}. *)

val span : ?attrs:(string * Jsonx.t) list -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] profiles [f] as a {!Obs_span} interval when a
    recorder is attached, and is [f ()] otherwise (one branch — but note
    the closure and any [?attrs] list are built by the caller either
    way, so inner loops should hoist {!span_recorder} instead). *)
