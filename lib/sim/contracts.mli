(** Contract variations — what the draconian kill-on-reclaim semantics
    cost, relative to a gentler suspend-on-reclaim contract.

    The paper's model (§1) is deliberately draconian: work in progress is
    destroyed when the owner returns ("a returning owner unplugs a laptop
    from a network"). The obvious foil, mentioned as the motivation for
    the tension, is a contract where in-flight work is {e suspended} and
    its completed fraction retained (e.g. the borrowed process is
    checkpointed by the system on reclaim). Under suspension there is no
    reason to split an episode at all — a single period pays [c] once and
    loses nothing — so comparing the two contracts' optimal values
    quantifies exactly how much productivity the draconian clause costs
    (experiment E19). *)

val expected_work_suspended :
  c:float -> Life_function.t -> Schedule.t -> float
(** [expected_work_suspended ~c p s] is the closed-form expectation of the
    work [s] banks under the suspend contract, where an interrupted
    period's productive time completed so far is banked rather than lost
    (the [c]-long setup of the interrupted period is still spent):

    [E_suspend(S; p) = Σ_i ∫_{τ_i + c}^{T_i} p(t) dt]

    (integration by parts of the partial-work payoff against the reclaim
    density; [τ_i] is period [i]'s start). Evaluated by adaptive
    quadrature per period. Requires [c >= 0]. *)

val single_period_value : c:float -> Life_function.t -> float
(** [single_period_value ~c p] is the suspend-contract value of the
    one-period schedule spanning the horizon — the optimal schedule under
    suspension, [∫_c^{horizon} p]. The gap to the draconian guideline
    value is the price of draconia. *)
