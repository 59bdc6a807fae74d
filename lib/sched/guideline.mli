(** The paper's scheduling guidelines assembled into a scheduler.

    The recipe (§3, applied in §4): bracket the optimal initial period with
    Theorems 3.2/3.3, search that "manageably narrow" interval for the
    [t_0] whose recurrence-generated schedule has maximal expected work,
    and emit that schedule. This is exactly the workflow the paper
    prescribes to a practitioner; the independent {!Optimizer} exists to
    measure how close it lands. *)

type result = {
  schedule : Schedule.t;  (** The guideline-generated schedule. *)
  t0 : float;  (** The chosen initial period. *)
  expected_work : float;  (** [E(schedule; p)] per eq. 2.1. *)
  bracket : float * float;  (** The Theorem 3.2/3.3 search interval. *)
  stop : Recurrence.stop_reason;  (** Why generation ended. *)
}

val plan :
  ?obs:Obs.t ->
  Life_function.t -> c:float ->
  result
(** [plan p ~c] runs the full guideline pipeline. The [t_0] search inside
    the bracket depends on the declared shape of [p]:
    - for {!Life_function.Concave}, [Convex], [Linear] and [Log_concave]
      [p], [E(t_0)] is unimodal over the bracket, and its maximum is the
      + → − crossing of the sign of eq. 3.6's stationarity residual
      [G = p(T_m) + (t_m − c)·p′(T_m)] ({!Recurrence.score}), or a
      bracket end. Bisection on that sign pins the crossing to 1e-10 of
      the bracket width in 34 halvings, scoring an end only when the
      halving closes onto it, and the plan takes the best [E] among
      every [t_0] scored (of those within 1e-12 of it, the latest
      scored where [E] falls): 35 evaluations with the final one, 36
      where [E] is monotone (test_guideline bounds it at 36 on eight
      families), whatever the parameters of [p]. A cut that leaves out
      a last term that still counts moves [E] itself: a tail cut says
      [E] falls, a period cap that it rises;
    - for {!Life_function.Unknown} [p], such as a trace fit, which can
      make [E] multimodal, a 128-cell grid localises the maximum and
      Brent refines it.

    Each candidate is scored by {!Recurrence.score}, which builds no
    schedule; only the winner's schedule is generated. The plan's
    [expected_work] is the winner's score from the search, not a further
    pass: it has the bits of [Schedule.expected_work ~c p schedule]
    (test_guideline checks this). Requires [0 < c < horizon p].

    [?obs] (default {!Obs.disabled}) records the planning step: a
    [Plan_computed] event (source ["guideline"], with the chosen [t_0],
    period count and expected work; no wall time). With a
    span recorder attached it also profiles where the time goes — a
    [guideline.plan] root span over [plan.bracket] (Thm 3.2/3.3),
    [plan.search] with a [plan.evaluate] / [recurrence.generate] pair
    per candidate, and the winner's [plan.evaluate] /
    [recurrence.generate] pair, which builds its schedule. The returned
    plan is unaffected.
    @raise Invalid_argument when [c] is out of range; before any
    bracketing, when [p] is concave or linear with lifespan [L] and
    Cor 5.3's bound on the period count, [ceil(sqrt(2L/c + 1/4) + 1/2)],
    exceeds {!Recurrence.default_max_periods}, since the cap could cut
    such a plan short; when {!Life_function.horizon} refuses an
    unbounded [p] whose 1e-12 survival point lies beyond the floats; or
    when no [t_0] scored has [E > 0], which only a bracket collapsed onto
    the end of the support gives. *)

val plan_batch :
  ?obs:Obs.t ->
  ?pool:Domain_pool.t ->
  (Life_function.t * float) list ->
  result list
(** [plan_batch scenarios] is [List.map (fun (p, c) -> plan p ~c)
    scenarios], except the scenarios may run concurrently — one chunk per
    scenario on [?pool] (default inline). Plans are pure in [(p, c)], so
    the returned list is
    bit-identical for any domain count and keeps the input order. This is
    the batch entry point [csctl table] uses to sweep an overhead grid.

    Identical scenarios — the same life function (physical equality) at
    the same overhead (bitwise, {!Tol.exactly}) — are deduplicated before
    the fan-out: each canonical scenario plans once and its single result
    is fanned back out to every occurrence (physically shared), keeping
    input order.

    [?obs] observes the whole batch: each unique scenario records into a
    private child handle, merged back in first-occurrence order under a
    [guideline.plan_batch] span ({!Obs_fork}), so the trace holds one
    [Plan_computed] event per unique scenario and the profile groups
    per-scenario [guideline.plan] spans. *)

val next_period_online :
  Life_function.t -> c:float -> elapsed:float ->
  float option
(** [next_period_online p ~c ~elapsed] supports the §6 "progressive"
    mode: given that the workstation has survived to [elapsed], it plans
    against the conditional life function
    [s ↦ p(elapsed + s)/p(elapsed)] ({!Life_function.condition}) and
    returns only the first period of that plan, or [None] when no
    productive period remains: when [p elapsed = 0], when the
    conditional's {!Life_function.horizon} (the lifespan left, or the
    time until its survival drops below 1e-12) is at most [c], or when
    no [t_0] scores a productive first period. Each call is a full
    [t_0] search, as {!plan} runs it but without building the winner's
    schedule, and never raises {!plan}'s refusal: this is the reference
    that {!progressive} is checked against, and its fallback.
    @raise Invalid_argument when [elapsed < 0]. *)

val progressive : Life_function.t -> c:float -> (elapsed:float -> float option)
(** [progressive p ~c] is §6's progressive scheduler for one
    workstation: a closure that answers [next_period_online p ~c
    ~elapsed], planning in full only where it cannot certify a cheaper
    answer. [Farm.adaptive_policy] makes one per workstation per run.

    - At [elapsed = 0.] it returns [next_period_online p ~c ~elapsed:0.],
      bit for bit, computed at the first such call and replayed at every
      later one.
    - At a later [elapsed] that is at least its previous answer [t′],
      it seeds with eq. 3.6's continuation,
      {!Recurrence.next_period}[ p ~c ~prev_period:t′ ~prev_end:elapsed],
      which by Bellman's principle is the conditional plan's first
      period on an uninterrupted episode. It returns the seed without
      searching when [p]'s declared shape is certified (not
      {!Life_function.Unknown}), the seed exceeds [c], [seed·(1 ± 1e-6)]
      lies inside the conditional's Theorem 3.2/3.3 bracket
      ({!Bounds.bracket}), and three {!Recurrence.expected_work_at}
      passes give [E(seed) > 0] and [E(seed) >= E(seed·(1 ± 1e-6))].
      {!plan}'s search already relies on [E(t_0)] being unimodal over
      the bracket; under that premise the conditional maximum lies
      within 1e-6 of the seed.
    - Every other call, such as one on an Unknown-shape trace fit, after
      a clipped or delayed period, or whose check fails, is
      [next_period_online p ~c ~elapsed] itself.

    The closure keeps state across calls, so it belongs to one caller.
    An answer agrees with [next_period_online]'s on [Some]/[None] and,
    on the corpus test_guideline checks, within 1e-6 relative (2.6e-7
    at worst). It need not be closer: the continuation is the
    conditional optimum only as exactly as the static plan is optimal,
    which is within the recurrence's family and to the [t_0] search's
    tolerance, and where the conditional [E] is flat a small shortfall
    in [E] spans a wider gap in the period. A whole episode's expected
    work does not move (within 1e-12 in test_guideline).
    @raise Invalid_argument when [elapsed < 0]. *)
