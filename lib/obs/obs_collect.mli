(** The telemetry collector: many producers in, one merged picture out.

    [run] listens on a unix/TCP address for {!Obs_remote} producers
    speaking the {!Obs_stream} protocol. Each connection is one stream
    segment: HELLO pins its {!Obs_meta.t} provenance (and so its
    {!Obs_meta.run_id}), events are accepted only in strict sequence
    order, and the segment ends with BYE — or without one, in which
    case the written trace is finalized with an explicit truncation
    marker line rather than passing for a complete run.

    Every accepted stream is written back out as an ordinary JSONL
    trace (provenance header first), so a streamed trace is
    [cstrace diff]-identical to the same run's locally written file:
    the transport adds sequence numbers and heartbeats on the wire but
    none of it reaches the written lines. A trace is written only when
    an output directory is given.

    In parallel the collector folds every event from every producer
    into one aggregated [trace.*] registry
    ({!Obs_query.metrics_updater}) plus [collect.*] transport counters,
    optionally served live over {!Obs_http} ([/metrics] validated
    Prometheus text, [/health] 503 while any alert fires), and
    evaluates {!Obs_health} rules against that registry as events
    arrive — the {!Alerts} state machine reports firing/resolved
    {e edges}, not levels, so the log carries one line per
    transition. *)

(** {1 Alert state machine} *)

type transition = {
  tr_rule : Obs_health.rule;
  tr_firing : bool;  (** [true] = fired on this observation *)
  tr_value : float option;  (** offending value when firing *)
}

module Alerts : sig
  type t

  val create : Obs_health.rule list -> t

  val observe : t -> Obs_metrics.snapshot -> transition list
  (** Evaluate the rules against one registry snapshot and return the
      state {e changes}: a rule whose status crossed into [Fail] fires,
      one that crossed back resolves. [Missing]/[Skipped] never fire —
      early in a stream most selectors have no data yet. *)

  val any_firing : t -> bool
end

(** {1 Collector} *)

type stream_summary = {
  ss_run_id : string;
  ss_events : int;
  ss_dropped : int;  (** producer-reported drop counter *)
  ss_truncated : bool;  (** ended without BYE *)
  ss_path : string option;  (** final resting place of the trace *)
}

type summary = {
  streams : stream_summary list;  (** in finalization order *)
  total_events : int;
  rejected : int;  (** protocol-violating or unreadable frames *)
  alerts_fired : int;
  alerts_resolved : int;
}

val run :
  ?http:Obs_http.addr ->
  ?producers:int ->
  ?once:bool ->
  ?out_dir:string ->
  ?rules:Obs_health.rule list ->
  ?alert_every:int ->
  ?log:(string -> unit) ->
  ?ready:(Obs_http.addr -> unit) ->
  listen:Obs_http.addr ->
  unit ->
  (summary, string) result
(** Listen on [listen] and collect. With [once] (default [false]) the
    collector stops after [producers] (default [1]) stream segments
    have been finalized; otherwise it accepts forever. [out_dir] keeps
    each stream's JSONL trace as [<run_id>.jsonl] (suffixed [-2],
    [-3]… on id collision); without it no trace is written. [rules]
    are evaluated every
    [alert_every] events (default [64]) and at each stream's
    finalization. [http] stands up the live exposition endpoint for
    the collector's lifetime. [ready] receives the bound listen
    address (with TCP port [0], the kernel-chosen port) before the
    first accept — the CLI's [--addr-file] handshake. [log] receives
    one line per notable occurrence (stream truncated, frame rejected,
    alert transition); default drops them. *)

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line rendering: totals, then one line per stream. *)
