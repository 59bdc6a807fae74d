(** Worst-case (competitive) cycle-stealing schedules — the direction of
    the paper's announced sequel ("In a forthcoming sequel to this paper,
    we focus on (nearly) optimizing a worst-case, rather than expected,
    measure of a cycle-stealing episode's work output", §1 fn. 1), in the
    adversarial spirit of Awerbuch–Azar–Fiat–Leighton (the paper's [2]).

    Setting: an adversary, not a distribution, chooses the reclaim time
    [t]. The schedule banks the step function [W_S(t)] (completed periods'
    productive time); the omniscient benchmark, knowing [t], runs a single
    period ending exactly at [t] and banks [t − c]. Because any schedule
    can be killed before its first completion, an unconditional ratio is
    identically 0; the guarantee therefore carries an explicit {e grace}
    period (default [5c]): after time [grace], at every kill instant up to
    the design [horizon],

    [W_S(t) >= ratio · (t − c)].

    Geometric (doubling-style) schedules are the classic shape for such
    guarantees; {!plan} optimises the growth factor and first period
    numerically and then polishes the raw period vector by coordinate
    ascent. Experiment E15 tabulates the guarantee and what it costs in
    expected work on the paper's distributional scenarios. *)

type t = {
  schedule : Schedule.t;
  ratio : float;  (** Guaranteed fraction of the omniscient work. *)
  grace : float;  (** Warm-up before the guarantee applies. *)
  horizon : float;  (** Adversary's latest kill time used in the design. *)
}

val work_if_killed_at : Schedule.t -> c:float -> float -> float
(** [work_if_killed_at s ~c t] is [W_S(t)]: productive time of the periods
    completing by [t] (same convention as {!Episode.run} — a period ending
    exactly at [t] counts). *)

val competitive_ratio :
  Schedule.t -> c:float -> grace:float -> horizon:float -> float
(** [competitive_ratio s ~c ~grace ~horizon] evaluates the infimum of
    [W_S(t)/(t − c)] over [t ∈ [grace, horizon]]. The ratio is piecewise
    decreasing between completions, so the infimum is evaluated exactly at
    the critical instants (grace, just-before each completion, horizon).
    Requires [c < grace <= horizon]. One pass, O(n) for [n] periods,
    with the bits of {!work_if_killed_at} at every instant. *)

val geometric_schedule :
  horizon:float -> t0:float -> factor:float -> Schedule.t
(** [geometric_schedule ~horizon ~t0 ~factor] is periods
    [t0, t0·γ, t0·γ², ...] until [horizon] is covered (last period clipped
    to end exactly at [horizon]). Requires [t0 > 0], [factor >= 1],
    [horizon >= t0]. *)

val plan : ?grace:float -> c:float -> horizon:float -> unit -> t
(** [plan ~c ~horizon ()] maximises the competitive ratio over geometric
    schedules (grid + refine over [(t0, γ)]), then polishes the best one by
    coordinate ascent directly on the period vector, keeping the polished
    vector only if its ratio is higher. [grace] defaults to [5c]. Requires
    [c < grace < horizon]. *)
