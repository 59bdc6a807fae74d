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
    period, one for a killed one. It is the one-trial entry; many trials
    of one schedule play a {!replay} instead, which sums each period
    once for all of them.

    [?obs] (default {!Obs.disabled}) attaches observability: with a
    consuming sink the replay emits [Episode_started],
    [Period_dispatched], [Period_completed] / [Period_killed],
    [Owner_returned] (iff interrupted) and [Episode_finished] events,
    stamped with episode-relative times and the [?ws] / [?ep] identity
    (defaults 0, used by the Monte-Carlo and farm layers); with a span
    recorder it records one [episode.run] span. The accounting itself is
    untouched: results are bit-identical with and without [?obs]. *)

type replay
(** A schedule tabulated for many trials at one overhead: its work step
    function [W_S] at every period end, and the overhead sum's state
    there. Immutable once built, so one replay may be played from several
    domains at once, like the schedule's own arrays. *)

val replay : Schedule.t -> c:float -> replay
(** [replay s ~c] builds, once, the compensated running sums of banked
    work and overhead after each period [k = 0 … n] of [s]. It makes the
    same {!Kahan.add} calls, in the same order, that {!run} makes, so
    {!play} can return {!run}'s outcome bit for bit. O(n) time and about
    [5n] words. Requires [c >= 0]. *)

val play :
  ?obs:Obs.t -> ?ws:int -> ?ep:int -> replay -> reclaim_at:float -> outcome
(** [play r ~reclaim_at] is [run s ~c ~reclaim_at] for the schedule and
    overhead [r] was built from: the same outcome, compared as bits, the
    same events and the same [episode.run] span. It scans the schedule's
    [ends] for the completed count [k] with {!run}'s loop condition, reads
    both sums at [k], and adds only a killed period's [min in_flight c]
    to the overhead, through {!Kahan.total_with} on the table's
    read-only state. So a trial costs a scan of [ends] up to its reclaim
    time and O(1) beyond it, and never re-sums a completed period.
    Uninstrumented, it allocates the outcome (7 words), its boxed work,
    overhead and lost-work figures, and one boxed addend for a killed
    period: at most 15 minor words, whatever the schedule's length.
    Requires [reclaim_at >= 0]. *)

val work_if_reclaimed_at : Schedule.t -> c:float -> float -> float
(** [work_if_reclaimed_at s ~c t] is just the banked work of {!run} — the
    deterministic work function [W_S(t)] whose expectation under [p] is
    eq. 2.1. Exposed separately because tests integrate it directly against
    the life function density as an independent check of
    {!Schedule.expected_work}. *)
