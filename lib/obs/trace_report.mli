(** Offline aggregation of a JSONL event trace back into the summary
    numbers a live run computes: the one fold of a finished trace.

    [csctl simulate --trace FILE] (or any [Jsonl]-sinked run) produces a
    stream of {!Obs_event.t}, which {!Obs_query.load} reads back; this
    module folds that stream into totals, per-workstation tables, kill
    rates, an overhead fraction, and four exact distributions (period
    length, episode duration, banked work, overhead). [cstrace report]
    prints the fold ({!pp}) and [cstrace check] judges its {!values}, so
    the two never disagree on a number. The design contract — pinned by
    [test/test_obs.ml] — is that a trace {e round-trips}: the aggregate
    of the events equals the [Farm.report] / [Monte_carlo] numbers of
    the run that emitted them, to float tolerance. A trace is thus a
    complete scientific artifact of a run, not a lossy log.

    The fold keeps every decoded value, as it comes: a negative field
    or an episode that finishes before it starts enters its
    distribution as is, and nothing raises. *)

type ws_summary = {
  ws : int;
  episodes : int;  (** [Episode_started] count. *)
  periods_completed : int;
  periods_killed : int;
  work_done : float;  (** Σ banked. *)
  work_lost : float;  (** Σ lost. *)
  overhead : float;  (** Σ overhead over completed and killed periods. *)
}

type t = {
  events : int;  (** Total events aggregated. *)
  sources : string list;  (** Distinct [Run_started] sources, in order. *)
  plans : (string * float * int * float) list;
      (** [Plan_computed] records: (source, t0, periods, expected_work). *)
  episodes_started : int;
  episodes_finished : int;
  episodes_interrupted : int;
  periods_dispatched : int;
  periods_completed : int;
  periods_killed : int;
  total_done : float;
  total_lost : float;
  total_overhead : float;
  pool_drained_at : float option;
      (** Time of the first [Pool_drained] event, if any. *)
  pool_remaining : float option;
      (** [remaining] of that same event. *)
  per_ws : ws_summary list;  (** Sorted by workstation id. *)
  period_lengths : float array;
      (** Length of every dispatched period, emission order. *)
  episode_durations : float array;
      (** [Episode_finished.time − Episode_started.time] for every
          matched (ws, ep) pair, emission order of the finish. *)
  banked : float array;
      (** [banked] of every completed period, emission order. *)
  overheads : float array;
      (** [overhead] of every completed or killed period, emission
          order. *)
}

val of_events : Obs_event.t list -> t

val values : t -> (string * float) list
(** The named values [cstrace check] judges, in this order:
    - the five counts [trace.episodes_started], [trace.episodes_finished],
      [trace.periods_dispatched], [trace.periods_completed] and
      [trace.periods_killed];
    - [trace.pool_remaining], only when the trace has a [Pool_drained]
      event;
    - for each distribution [D] of [trace.period_length],
      [trace.episode_duration], [trace.banked] and [trace.overhead]:
      [D.count], and, when [D] holds a value, [D.sum] (compensated),
      [D.mean], [D.min], [D.max], [D.p50], [D.p95] and [D.p99]. The
      extremes and quantiles are {!Stats.quantile} over the exact
      collected values, the same numbers {!pp} prints. *)

val kill_rate : t -> float
(** Killed / (completed + killed); [0] when no period ever started. *)

val overhead_fraction : t -> float
(** Overhead / (done + lost + overhead) — the share of borrowed busy
    time spent communicating; [0] when nothing happened. *)

val pp : Format.formatter -> t -> unit
(** Deterministic multi-line summary: totals, quantiles
    ({!Stats.quantile} over the exact collected values, not bucketed),
    plan lines, and the per-workstation table. *)

(** {1 Span trees}

    The span-profiler side of the report: fold the flat span list of an
    {!Obs_span} recorder into a call tree with total and self wall time
    per (path, name) — the terminal-friendly complement of the Chrome
    trace export. *)

type span_node = {
  sn_name : string;
  sn_count : int;  (** Spans aggregated into this node. *)
  sn_total_us : float;  (** Σ duration of those spans. *)
  sn_self_us : float;
      (** Total minus the children's totals, clamped at 0 (clock
          granularity can make nested sums exceed the parent). *)
  sn_children : span_node list;  (** First-seen order. *)
}

val span_tree : Obs_span.span list -> span_node list
(** Group sibling spans (same parent path) by name, recursively. Spans
    whose [parent] is [-1] form the roots; pass the full
    [Obs_span.spans] list. *)

val pp_span_tree : Format.formatter -> span_node list -> unit
(** Fixed-width indented table: one line per node — total, self,
    call count. *)
