(** From raw absence observations to a smooth, schedulable life function.

    Pipeline: estimate the survival curve (plain ECDF complement for fully
    observed data, Kaplan–Meier under censoring), thin it to quantile-
    spaced knots, enforce the life-function boundary conditions
    ([p(0) = 1], terminal 0 at a horizon), and fit a monotone PCHIP
    interpolant — smooth enough for the recurrence engine's derivative
    queries, monotone by construction. *)

type estimate = {
  life : Life_function.t;  (** The smoothed, validated life function. *)
  knots : (float * float) array;  (** The (time, survival) knots used. *)
  n_observed : int;
  n_censored : int;
}

val of_observations :
  ?knots:int -> Owner_model.observation array -> estimate
(** [of_observations obs] builds the estimate from raw data using [knots]
    interior knots (default 32, reduced automatically for small samples).
    The horizon is placed at the largest observation, extended by one
    inter-knot gap so the fitted survival reaches 0 smoothly rather than
    truncating at a positive value.
    @raise Invalid_argument on empty input, all-censored data, or a
    negative or non-finite duration. *)

val of_durations : ?knots:int -> float array -> estimate
(** [of_durations ds] is {!of_observations} on fully-observed data. *)

type bands = {
  lower : Life_function.t;
      (** Pessimistic band: survival shifted down by [z] Greenwood standard
          deviations — schedule against this when underestimating the
          owner's absence is costlier than overestimating it. *)
  point : Life_function.t;  (** The Kaplan–Meier point estimate. *)
  upper : Life_function.t;  (** Optimistic band. *)
  z : float;  (** The normal quantile used (1.96 ~ pointwise 95%). *)
}

val confidence_bands :
  ?knots:int -> ?z:float -> Owner_model.observation array -> bands
(** [confidence_bands obs] builds pointwise Greenwood confidence bands
    around the Kaplan–Meier estimate and smooths each into a schedulable
    life function ([z] defaults to 1.96, [knots] to 32). Bands are clamped
    into [[0, 1]] and forced monotone, so each is itself a valid life
    function; the lower band typically reaches 0 earlier (a shorter
    pessimistic horizon). Same input requirements as {!of_observations}.
    Experiment E16 measures the value of scheduling against the lower band
    at small sample sizes. *)

val survival_rmse :
  estimate -> truth:Life_function.t -> float
(** [survival_rmse e ~truth] is the root-mean-square gap between the
    estimated and true survival curves on a 256-point grid over the
    estimate's support — experiment E10's estimation-error metric. *)
