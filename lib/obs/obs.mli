(** The observability handle threaded through the simulation and
    scheduling layers.

    An [Obs.t] bundles an event {!Obs_sink} with an optional
    {!Obs_metrics} registry. Instrumented functions take it as an
    optional [?obs] parameter defaulting to {!disabled}, so existing call
    sites compile (and behave) unchanged.

    {2 Overhead discipline}

    The disabled handle must cost ~one branch per hot-path call site.
    Instrumented code therefore hoists the activity tests once:

    {[
      let trace = Obs.tracing obs in       (* events wanted? *)
      let meter = Obs.metrics obs in       (* registry attached? *)
      ...
      if trace then Obs.emit obs (Obs.Event.Period_completed { ... });
      (match meter with Some m -> Obs_metrics.incr done_ctr | None -> ());
    ]}

    so that with [obs = disabled] (or a [Null] sink) no event is ever
    constructed and no registry is touched — the [bench/] timing suite
    pins this budget. The convenience wrappers ({!incr}, {!observe},
    {!time}) carry the same one-branch guarantee internally and are fine
    outside inner loops. *)

module Metrics = Obs_metrics
module Event = Obs_event
module Sink = Obs_sink
module Span = Obs_span
module Meta = Obs_meta
module Resource = Obs_resource
module Health = Obs_health
module Http = Obs_http
module Stream = Obs_stream
module Remote = Obs_remote
module Collect = Obs_collect

type t

val disabled : t
(** No sink, no metrics, no span recorder: {!tracing} is [false],
    {!metrics} and {!span_recorder} are [None], every operation is a
    cheap no-op. The default everywhere. *)

val create : ?sink:Sink.t -> ?metrics:Metrics.t -> ?spans:Span.t -> unit -> t
(** [create ()] with no argument behaves like {!disabled}. *)

val tracing : t -> bool
(** [true] iff the sink consumes events ([Sink.Null] does not). Hoist
    this test and guard event {e construction} with it. *)

val metrics : t -> Metrics.t option
(** The attached registry, for hot paths that pre-resolve instruments. *)

val span_recorder : t -> Span.t option
(** The attached span recorder. Hot paths hoist this once and call
    {!Obs_span} directly when it is [Some]; cooler paths use {!span}. *)

val instrumented : t -> bool
(** Whether any observation work is wanted at all (sink, registry, or
    span recorder attached). *)

val emit : t -> Event.t -> unit
(** Deliver one event; no-op unless {!tracing}. *)

val incr : t -> string -> unit
(** Bump counter [name]; no-op without a registry. *)

val add : t -> string -> int -> unit

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record one histogram observation; no-op without a registry. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Span-time [f] into histogram [name] (seconds); runs [f] untimed
    without a registry. *)

val span : ?attrs:(string * Jsonx.t) list -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] profiles [f] as a {!Obs_span} interval when a
    recorder is attached, and is [f ()] otherwise (one branch — but note
    the closure and any [?attrs] list are built by the caller either
    way, so inner loops should hoist {!span_recorder} instead). *)
