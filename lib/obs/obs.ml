module Metrics = Obs_metrics
module Event = Obs_event
module Sink = Obs_sink
module Span = Obs_span
module Meta = Obs_meta
module Resource = Obs_resource
module Health = Obs_health

type t = {
  sink : Sink.t;
  spans : Span.t option;
  trace_on : bool;  (** Cached [Sink.consumes sink]. *)
}

let disabled = { sink = Sink.Null; spans = None; trace_on = false }

let create ?(sink = Sink.Null) ?spans () =
  { sink; spans; trace_on = Sink.consumes sink }

let tracing t = t.trace_on
let span_recorder t = t.spans
let instrumented t = t.trace_on || t.spans <> None
let emit t ev = if t.trace_on then Sink.emit t.sink ev

let span ?attrs t name f =
  match t.spans with None -> f () | Some r -> Span.record ?attrs r name f
