(** One-dimensional root finding.

    The guideline recurrence (paper eq. 3.6) solves
    [p (T_{k-1} + t_k) = rhs] once per period, and the [t_0] bounds
    (Theorems 3.2/3.3) are implicit inequalities solved as fixed points, so
    robust bracketed solvers are on the hot path of every scheduler in this
    repository. All solvers are derivative-free. *)

type outcome = {
  root : float;  (** Final abscissa. *)
  residual : float;  (** [f root] at termination. *)
  iterations : int;  (** Function-evaluation driven iteration count. *)
}

exception No_bracket of string
(** Raised when a bracketing precondition [f lo * f hi <= 0] fails or when
    bracket expansion exhausts its budget. *)

val default_tol : float
(** Absolute abscissa tolerance used when [?tol] is omitted (1e-12). *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  outcome
(** [bisect f ~lo ~hi] finds a sign change of [f] in [[lo, hi]] by interval
    halving. Requires [f lo] and [f hi] of opposite sign (or one of them
    zero). Guaranteed to converge; ~60 iterations suffice for [tol] 1e-12
    on unit-scale intervals.
    @raise No_bracket if the endpoint signs agree. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  outcome
(** [brent f ~lo ~hi] is Brent's method: inverse quadratic interpolation and
    secant steps guarded by bisection, converging superlinearly on smooth
    [f] while retaining the bisection guarantee.
    @raise No_bracket if the endpoint signs agree. *)

val expand_bracket :
  ?grow:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  float * float
(** [expand_bracket f ~lo ~hi] grows the interval geometrically (factor
    [grow], default 1.6) alternating on both sides until [f] changes sign,
    returning the bracketing pair.
    @raise No_bracket if the budget (default 60 doublings) is exhausted. *)
