(** Execution of one cycle-stealing episode against a concrete reclaim
    time — the draconian contract of §1 made operational.

    Workstation A supplies workstation B with one bundle of work per
    period. A period of length [t] starting at [τ] completes iff the owner
    has not reclaimed B strictly before [τ + t]; completion banks [t ⊖ c]
    work. Reclaim kills the in-flight period: its work is lost, and the
    episode ends. This module replays a schedule against a given reclaim
    time and produces a full accounting, which the Monte-Carlo layer
    averages and the farm composes. *)

type outcome = {
  work_done : float;  (** Banked work: [Σ (t_i ⊖ c)] over completed periods. *)
  work_lost : float;
      (** Productive time in flight when the kill arrived ([0] if the
          schedule ran to completion). *)
  overhead : float;  (** Communication time spent, [c] per started period. *)
  periods_completed : int;
  interrupted : bool;  (** [true] iff the owner reclaimed mid-period. *)
  elapsed : float;
      (** Episode wall-clock: reclaim time if interrupted, else the
          schedule's total duration. *)
}

val run :
  ?obs:Obs.t -> ?ws:int -> ?ep:int ->
  Schedule.t -> c:float -> reclaim_at:float -> outcome
(** [run s ~c ~reclaim_at] replays the schedule. A period completing
    exactly at the reclaim instant is counted as completed, matching the
    paper's convention that work is lost only when B is reclaimed {e
    before} the period's end ([p(T_i)] is the probability of surviving
    {e to} [T_i]). Requires [c >= 0] and [reclaim_at >= 0].

    The replay reads the schedule's [periods] and [ends] arrays in place
    and copies neither, so its cost and allocation grow with the periods
    it visits, never with the schedule's length. Uninstrumented, it
    allocates the outcome and its two compensated sums (21 minor words),
    plus one boxed float per addend to those sums: two per completed
    period, one for a killed one.

    [?obs] (default {!Obs.disabled}) attaches observability: with a
    consuming sink the replay emits [Episode_started],
    [Period_dispatched], [Period_completed] / [Period_killed],
    [Owner_returned] (iff interrupted) and [Episode_finished] events,
    stamped with episode-relative times and the [?ws] / [?ep] identity
    (defaults 0, used by the Monte-Carlo and farm layers); with a metrics
    registry it maintains [episode.*] counters and histograms. The
    accounting itself is untouched: results are bit-identical with and
    without [?obs]. *)

val work_if_reclaimed_at : Schedule.t -> c:float -> float -> float
(** [work_if_reclaimed_at s ~c t] is just the banked work of {!run} — the
    deterministic work function [W_S(t)] whose expectation under [p] is
    eq. 2.1. Exposed separately because tests integrate it directly against
    the life function density as an independent check of
    {!Schedule.expected_work}. *)
