(** The Corollary 3.2 admissibility question: does a life function admit an
    optimal schedule at all?

    The paper asserts that heavy-tailed functions such as [1/(t+1)^d],
    [d > 1], admit no optimal schedule. Reproducing this claim uncovered
    two subtleties worth recording (see also EXPERIMENTS.md, E11):

    - The corollary's literal condition — ∃[t > c] with
      [p(t) > -(t-c)·p'(t)] — is vacuous: the margin at [t → c⁺] is
      [p(c) > 0] for every life function, so the condition never excludes
      anything. The {!margin} function is kept because the margin {e
      profile} is still informative (it vanishes exactly at single-period
      optimality points).
    - The full necessary system (3.1) admits a numerical solution even for
      the power laws: a measure-zero "separatrix" initial period whose
      eq.-3.6 orbit stays productive to arbitrary horizons (every other
      [t_0] collapses). At double precision that orbit is indistinguishable
      from an optimum. What {e does} rigorously separate the paper's
      inadmissible examples is their tail weight.

    The executable classification therefore rests on tail analysis:

    - {b Unbounded work}: if [∫ p] diverges ([d <= 1]), expected work is
      unbounded over schedules and no maximiser exists.
    - {b Heavy (polynomial) tail}: if [∫ p] converges but doubling tail
      panels of the integral decay by a ratio that stabilises at a positive
      constant ([2^{1-d}] for a [t^{-d}] tail) instead of rushing to zero
      (exponential, Weibull and all bounded-support functions), the
      function is classified inadmissible, matching the paper's [d > 1]
      examples. Operationally these are also the functions for which the
      guideline recurrence is catastrophically ill-conditioned: the set of
      initial periods with non-collapsing orbits has measure zero.
    - Bounded supports are always admissible (expected work is continuous
      on a compact schedule space).

    The tail probes are numerical (finite panels) and classify all of the
    paper's examples correctly, with a fuzzy band only at near-critical
    tails. *)

type reason =
  | Negative_margin of { max_margin : float }
      (** No sampled [t > c] had a nonnegative Corollary 3.2 margin.
          Unreachable for genuine life functions (see above); retained for
          defensive completeness on user-supplied [p]. *)
  | Unbounded_work of { tail_ratio : float }
      (** [∫ p] appears to diverge: doubling tail panels decay by
          [tail_ratio >= 0.98], so the supremum of expected work is
          infinite and not attained (e.g. [1/(t+1)]). *)
  | Heavy_tail of { tail_ratio : float }
      (** [∫ p] converges but the tail is polynomial: panel ratios
          stabilise at [tail_ratio] ∈ (0.02, 0.98) instead of decaying.
          The paper's [d > 1] power laws land here. *)

type verdict =
  | Admissible of { witness : float; margin : float }
      (** [witness > c] maximises the Corollary 3.2 margin; the tail is
          light enough for an optimal schedule to exist. *)
  | Inadmissible of reason

val margin : Life_function.t -> c:float -> float -> float
(** [margin p ~c t] is [p(t) + (t - c)·p'(t)] — the Corollary 3.2 margin. *)

val test : Life_function.t -> c:float -> verdict
(** [test p ~c] runs the margin scan (2048 points) and, for unbounded
    supports, the tail-weight analysis.
    Requires [0 < c < horizon p]. *)
