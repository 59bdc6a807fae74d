(** Fitting parametric life-function families to absence data.

    The paper's guidelines want a {e smooth} [p]; fitting a named family to
    the trace buys smoothness, an exact derivative, and a shape certificate
    (unlocking the Theorem 3.3 bounds) at the price of model bias. This
    module fits each supported family, scores it against the empirical
    survival curve, and selects the best. *)

type fitted = {
  family : string;  (** e.g. ["exponential"], ["weibull"], ["uniform"],
                        ["polynomial(d=2)"]. *)
  life : Life_function.t;
  sse : float;  (** Sum of squared survival errors on the ECDF points. *)
  params : (string * float) list;
}

val exponential_mle : float array -> fitted
(** Maximum-likelihood exponential fit ([rate = 1/mean]).
    @raise Invalid_argument on empty input or nonpositive durations. *)

val uniform_fit : float array -> fitted
(** Uniform-risk fit with the unbiased endpoint estimator
    [L = max · (n+1)/n]. *)

val weibull_mle : float array -> fitted
(** Weibull maximum likelihood: the shape solves the standard profile
    fixed point [Σ x^k ln x / Σ x^k − 1/k = mean(ln x)] (Brent's method to
    1e-10 on an expanded bracket), the scale follows in closed form.
    Requires at least 2 distinct positive durations. *)

val geometric_increasing_fit : float array -> fitted
(** Geometric-increasing-risk fit (the §4.3 "coffee break" family): the
    lifespan is chosen by 1-D least squares against the empirical survival
    over [(max duration, 4·max duration]]. Captures absence data whose
    return risk accelerates sharply near a deadline. *)

val polynomial_fit : float array -> fitted
(** Best [p_{d,L}] family member: for each [d] from 1 to 5 the lifespan is
    chosen by 1-D least squares against the empirical survival, and the
    best [d] wins. *)

val best_fit : float array -> fitted
(** [best_fit ds] fits all families above (exponential, uniform,
    polynomial, geometric-increasing, and Weibull when the data allow) and
    returns the lowest-SSE one.
    @raise Invalid_argument on fewer than 2 observations. *)

val sse_against_ecdf : Life_function.t -> float array -> float
(** [sse_against_ecdf p ds] scores a candidate life function against the
    empirical survival of the durations: [Σ_i (p(x_(i)) − S_n(x_(i)))²]
    over the sorted sample. Exposed for tests and custom model choice. *)
