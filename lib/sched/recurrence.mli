(** The guideline recurrence — Theorem 3.1 / Corollary 3.1 (eq. 3.6).

    If a schedule is optimal for a differentiable life function [p], its
    period lengths obey

    [p(T_k) = p(T_{k-1}) + (t_{k-1} − c) · p'(T_{k-1})],

    which determines each non-initial period from its predecessor: given the
    previous period's length and end time, the next period [t_k] is the
    unique positive solution of [p(T_{k-1} + t_k) = rhs]. This module solves
    that equation as [p⁻¹(rhs) − T_{k-1}] ({!Life_function.inverse}) and
    iterates it into full schedules, or scores the schedule a [t_0] would
    give without building it; choosing [t_0] is {!Guideline}'s job. *)

type stop_reason =
  | Exhausted_support
      (** The recurrence's right-hand side dropped to [<= 0]: the next
          period would have to end beyond the potential lifespan. *)
  | Unproductive
      (** The previous period was [<= c], so the right-hand side is at
          least [p(T_{k-1})] and no positive solution exists. *)
  | Tail_negligible
      (** [p(T_{k-1})] fell below the truncation threshold (1e-15); further
          periods contribute nothing measurable to expected work. *)
  | Period_cap  (** The [max_periods] budget was hit. *)

type generated = {
  schedule : Schedule.t;
  stop : stop_reason;
}

val next_period :
  Life_function.t -> c:float -> prev_period:float -> prev_end:float ->
  float option
(** [next_period p ~c ~prev_period ~prev_end] solves eq. 3.6 for [t_k],
    where the previous period had length [prev_period] and completed at
    [prev_end]. Returns [None] when the equation has no positive, finite
    solution (right-hand side [<= 0] or [>= p prev_end], or an unbounded
    [p] that never drops to it). Requires [c >= 0],
    [prev_period > 0], [prev_end >= prev_period]. *)

val default_max_periods : int
(** The period cap of {!generate} and {!score}: 100_000. *)

val generate :
  ?obs:Obs.t ->
  ?max_periods:int ->
  Life_function.t -> c:float -> t0:float ->
  generated
(** [generate p ~c ~t0] iterates {!next_period} from the initial period
    [t0], truncating unbounded tails at survival 1e-15 and capping at
    [max_periods] (default {!default_max_periods}). Periods that come out
    [<= c] end the iteration ({!Unproductive}) but the final sub-[c]
    period is kept only if it still contributes work ([> c] check),
    matching the Prop 2.1 normal form. Each period end costs one {!Life_function.eval_deriv},
    whose p serves the tail test and whose p and p′ serve the next step,
    and each step one {!Life_function.inverse}. Requires [t0 > 0] and
    [c >= 0].

    [?obs] (default {!Obs.disabled}): when a span recorder is attached,
    the whole generation is profiled as a [recurrence.generate] span
    carrying the period count and stop reason. *)

type score = {
  work : float;  (** [E], eq. 2.1, of the schedule {!generate} builds. *)
  slope : float;
      (** [G = p(T_m) + (t_m − c)·p′(T_m)], read at the end [T_m] of the
          recurrence's last period [t_m]. Along eq. 3.6 every partial
          [∂E/∂t_j] equals [G], and [G] is the right-hand side eq. 3.6
          would solve for period [m+1]: the one {!Exhausted_support}
          refused. Where [T_m >= L] the point holds the clamp,
          [p = p′ = 0], and [G = 0]. *)
  last_term : float;
      (** [(t_m − c)·p(T_m)], the last period's term of eq. 2.1: the work
          a {!Tail_negligible} or {!Period_cap} cut leaves out is of this
          order per period. *)
  stop : stop_reason;  (** Why the recurrence stopped. *)
}

val score :
  ?obs:Obs.t ->
  Life_function.t -> c:float -> t0:float ->
  score
(** [score p ~c ~t0] runs eq. 3.6 from [t0] once, without building the
    schedule: each period goes to {!Schedule.work_add} as it is
    generated, with the point the loop read at its end, so p is
    evaluated once per end, and the point at the last end gives [G]
    with no further call. Its [work] equals
    [Schedule.expected_work ~c p (generate p ~c ~t0).schedule] bit for
    bit. {!Guideline.plan} scores its [t_0] candidates with it. Requires
    [t0 > 0] and [c >= 0].

    [?obs]: with a span recorder attached, the pass is recorded as a
    [recurrence.generate] span with the same [periods] and [stop]
    attributes {!generate} records. *)

val expected_work_at :
  ?obs:Obs.t ->
  Life_function.t -> c:float -> t0:float ->
  float
(** [expected_work_at p ~c ~t0] is [(score p ~c ~t0).work]. *)

val residuals : Life_function.t -> c:float -> Schedule.t -> float array
(** [residuals p ~c s] evaluates, for each consecutive pair of periods, the
    defect [p(T_k) − p(T_{k-1}) − (t_{k-1} − c)·p'(T_{k-1})] — zero (to
    solver tolerance) exactly when the schedule satisfies the guideline
    system. Length is [num_periods s − 1]. *)
