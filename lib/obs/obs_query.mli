(** Typed queries over recorded traces — the read side of the
    observability layer.

    {!Trace_report} folds a trace into one fixed summary; this module
    instead hands the events back as data: load with provenance, filter
    by kind / workstation / episode / time window, roll up per-episode
    timelines, and — the cstrace centrepiece — structurally diff two
    runs to the first diverging event. Two same-seed runs must produce
    identical event streams for any [--jobs] value (DESIGN.md §10), so
    {!diff} is a semantic determinism check: byte-comparing files would
    also flag harmless header differences, while [diff] pinpoints the
    first {e event} where two runs genuinely disagree. *)

type trace = {
  path : string;
  meta : Obs_meta.t option;  (** Provenance header, when the file has one. *)
  events : Obs_event.t list;  (** In file order. *)
}

val load : string -> (trace, string) result
(** Parse a JSONL trace. Blank lines are skipped; a leading meta header
    is validated ({!Obs_meta.of_json}) and surfaced; malformed lines,
    bad headers and duplicate headers are errors with [file:line]
    positions. A path that cannot be read — missing, or a directory — is
    an [Error] naming it; [load] never raises. *)

(** {1 Filtering} *)

val filter :
  ?kind:string ->
  ?ws:int ->
  ?ep:int ->
  ?since:float ->
  ?until:float ->
  Obs_event.t list ->
  Obs_event.t list
(** Keep events matching every given criterion. [kind] matches
    {!Obs_event.kind}; [ws] / [ep] match {!Obs_event.ids} (events
    without ids — run-level markers — never match); [since] / [until]
    bound {!Obs_event.time} inclusively (events without a time —
    [Plan_computed] — never match). Order is preserved. *)

(** {1 Per-episode timelines} *)

type episode_row = {
  e_ws : int;
  e_ep : int;
  e_start : float;  (** [nan] if the trace lacks the start event. *)
  e_finish : float option;  (** [None] when the episode never finished. *)
  e_dispatched : int;
  e_completed : int;
  e_killed : int;
  e_work : float;  (** Σ banked (Kahan-compensated). *)
  e_lost : float;
  e_overhead : float;
  e_interrupted : bool;
}

val episodes : Obs_event.t list -> episode_row list
(** One row per (ws, ep) seen in the stream, sorted by workstation then
    episode ordinal. *)

val pp_episodes : Format.formatter -> episode_row list -> unit
(** Fixed-width table, one row per episode. *)

(** {1 Run diffing} *)

type divergence = {
  d_index : int;  (** 0-based index of the first differing event. *)
  d_left : Obs_event.t option;
      (** Left event at that index; [None] = left trace ended early. *)
  d_right : Obs_event.t option;
  d_context : Obs_event.t list;
      (** Up to [?context] shared events immediately preceding the
          divergence, oldest first. *)
}

val diff :
  ?context:int -> Obs_event.t list -> Obs_event.t list -> divergence option
(** [diff a b] is [None] when the streams are structurally identical,
    or the first divergence otherwise. Comparison is structural
    equality of every field — the determinism contract is
    bit-exactness, and no event carries wall time, so nothing is masked
    and no tolerance is applied. [context] (default 3) bounds
    [d_context]. *)

val pp_divergence : Format.formatter -> divergence -> unit
(** Multi-line rendering: index, shared context, then the two sides
    (or [<trace ended>]). *)
