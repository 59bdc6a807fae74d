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
    it visits, never with the schedule's length. It sums the completed
    periods itself, then settles the first one that did not complete
    with the code {!settle} runs. Uninstrumented, it allocates a
    {!settlement}, the outcome with its four boxed figures and its two
    compensated sums (about 30 minor words), plus about 2 words per
    completed period for the addends boxed into those sums. It is the
    one-trial entry; many trials of one schedule play a {!replay}
    instead, which sums each period once for all of them.

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

type settlement = private {
  mutable banked : float;
      (** Banked work: {!outcome}'s [work_done], [W_S] at the reclaim. *)
  mutable lost : float;  (** {!outcome}'s [work_lost]. *)
  mutable spent : float;  (** {!outcome}'s [overhead]. *)
  mutable ended : float;  (** {!outcome}'s [elapsed]. *)
}
(** One trial's figures, held where their caller can reuse them: a
    float-only record, so its fields store their floats unboxed. Only
    {!settle} writes one. *)

val settlement : unit -> settlement
(** [settlement ()] is a fresh settlement, every field [0.0]. One per
    domain: {!settle} overwrites it. *)

val settle : replay -> settlement -> reclaim_at:float -> int
(** [settle r st ~reclaim_at] plays one trial as {!play} does and returns
    its completed period count [k]; the trial was interrupted iff [k] is
    less than the schedule's period count. Its figures go into [st], each
    bit for bit the field of {!play}'s outcome that [st]'s field names.
    It emits nothing and allocates no outcome: uninstrumented callers
    that fold many trials, such as {!Monte_carlo}, settle every trial
    into one [st]. It allocates only the floats boxed across the call
    into {!Kahan} for the overhead total: 2 to 4 minor words, whatever
    the schedule's length. Requires [reclaim_at >= 0]. *)

val work_after : replay -> int -> float
(** [work_after r k] is the work banked by the first [k] periods of [r]'s
    schedule, [0 <= k <= n]: the [banked] figure of every trial that
    completes exactly [k] periods. *)

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
    It is {!settle} into a fresh settlement, then the events and the
    outcome built from it. Uninstrumented, it allocates the settlement,
    the outcome and its four boxed figures on top of {!settle}'s: 22 to
    24 minor words, whatever the schedule's length. Requires
    [reclaim_at >= 0]. *)
