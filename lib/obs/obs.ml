module Metrics = Obs_metrics
module Event = Obs_event
module Sink = Obs_sink
module Span = Obs_span
module Meta = Obs_meta
module Resource = Obs_resource
module Health = Obs_health

type t = {
  sink : Sink.t;
  registry : Metrics.t option;
  spans : Span.t option;
  trace_on : bool;  (** Cached [Sink.consumes sink]. *)
}

let disabled = { sink = Sink.Null; registry = None; spans = None; trace_on = false }

let create ?(sink = Sink.Null) ?metrics ?spans () =
  { sink; registry = metrics; spans; trace_on = Sink.consumes sink }

let tracing t = t.trace_on
let metrics t = t.registry
let span_recorder t = t.spans

let instrumented t =
  t.trace_on || t.registry <> None || t.spans <> None

let emit t ev = if t.trace_on then Sink.emit t.sink ev

let incr t name =
  match t.registry with
  | None -> ()
  | Some m -> Metrics.incr (Metrics.counter m name)

let add t name n =
  match t.registry with
  | None -> ()
  | Some m -> Metrics.add (Metrics.counter m name) n

let set_gauge t name v =
  match t.registry with
  | None -> ()
  | Some m -> Metrics.set (Metrics.gauge m name) v

let observe t name v =
  match t.registry with
  | None -> ()
  | Some m -> Metrics.observe (Metrics.histogram m name) v

let time t name f =
  match t.registry with None -> f () | Some m -> Metrics.time m name f

let span ?attrs t name f =
  match t.spans with None -> f () | Some r -> Span.record ?attrs r name f
