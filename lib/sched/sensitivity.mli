(** Sensitivity of guideline schedules to misspecified inputs.

    A practitioner measures the communication overhead [c] and estimates
    the life function; both carry error. These utilities quantify how much
    expected work survives planning with wrong inputs while the world runs
    with the true ones — the robustness question any deployment of the
    paper's guidelines faces (experiment E18). *)

type point = {
  perturbation : float;
      (** Multiplicative factor applied to the planner's input. *)
  planned_with : float;  (** The perturbed value the planner saw. *)
  efficiency : float;
      (** E(plan(perturbed); truth) / E(plan(truth); truth) — 1.0 means no
          loss. *)
}

val c_misspecification : Life_function.t -> c:float -> point list
(** [c_misspecification p ~c] plans with [c' = factor·c] for each factor
    in [{0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0}] and evaluates every
    resulting schedule under the true [(p, c)]. Factors making [c']
    infeasible (at or beyond the horizon) are skipped.
    Requires [0 < c < horizon p]. *)

val lifespan_misspecification : lifespan:float -> float -> point list
(** [lifespan_misspecification ~lifespan c] is the same exercise, over the
    same factors, for a uniform-risk planner that believes the episode
    lasts [factor · lifespan]: plans against [uniform(factor·L)], evaluated
    under [uniform(L)]. Quantifies the cost of optimistic/pessimistic
    horizon estimates. Requires [0 < c < lifespan]. *)
