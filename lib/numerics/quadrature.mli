(** Numerical integration.

    Used to compute the mean reclaim time [∫ p(t) dt] of a life function
    (a survival-function identity), normalisation constants for trace
    densities, and cross-checks of Monte-Carlo estimates. *)

val adaptive_simpson :
  ?tol:float -> ?max_depth:int -> (float -> float) -> lo:float -> hi:float ->
  float
(** [adaptive_simpson f ~lo ~hi] recursively bisects panels until the local
    Richardson error estimate is below [tol] (default 1e-10), to depth at
    most [max_depth] (default 50). *)

val integrate_to_infinity :
  ?tol:float -> (float -> float) -> lo:float -> float
(** [integrate_to_infinity f ~lo] integrates a nonnegative, eventually
    decaying [f] on [[lo, ∞)] by doubling panels [[x, 2x]] until a panel
    contributes less than [tol] (default 1e-12) relatively. Intended for
    survival functions with exponential-type tails (e.g. [a^{-t}]). *)
