(** Descriptive statistics, confidence intervals and survival estimation.

    The Monte-Carlo validation experiments (E8) need means with confidence
    intervals; the trace pipeline (E10) needs empirical survival curves —
    both the plain ECDF complement and the Kaplan–Meier estimator for
    right-censored absence intervals — plus simple regression for fitting
    life-function families to log-survival data. *)

type summary = {
  n : int;
  mean : float;
  variance : float;  (** Unbiased (n-1) sample variance; 0 when n < 2. *)
  stddev : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** [summarize a] computes all fields in two compensated passes: the
    mean, then the squared deviations from it.
    @raise Invalid_argument on the empty array. *)

val mean : float array -> float
(** Compensated arithmetic mean. @raise Invalid_argument on empty input. *)

val confidence_interval_95 : float array -> float * float
(** [confidence_interval_95 a] is the normal-approximation 95% CI
    [(mean - 1.96·se, mean + 1.96·se)] for the population mean.
    @raise Invalid_argument when [n < 2]. *)

val summary_ci95 : summary -> float * float
(** [summary_ci95 s] is {!confidence_interval_95} of the sample [s]
    summarizes, bit for bit, for a caller that also wants the summary:
    the array is not walked again.
    @raise Invalid_argument when [s.n < 2]. *)

val standard_error : float array -> float
(** [standard_error a] is [stddev / sqrt n].
    @raise Invalid_argument when [n < 2]. *)

val quantile : float array -> q:float -> float
(** [quantile a ~q] is the linearly-interpolated empirical [q]-quantile
    (type-7). Requires [0 <= q <= 1]; sorts a copy.
    @raise Invalid_argument on empty input or [q] out of range. *)

val quantiles : float array -> qs:float list -> float list
(** [quantiles a ~qs] is [List.map (fun q -> quantile a ~q) qs], bit for
    bit, from one sorted copy of [a].
    @raise Invalid_argument on empty input or any [q] out of range. *)

val histogram :
  float array -> bins:int -> lo:float -> hi:float -> int array
(** [histogram a ~bins ~lo ~hi] counts samples per uniform bin over
    [[lo, hi]]; out-of-range samples are clamped to the edge bins.
    Requires [bins >= 1] and [lo < hi]. *)

val ecdf_survival : float array -> (float * float) array
(** [ecdf_survival samples] is the right-continuous empirical survival
    function of the (uncensored) samples: sorted distinct abscissae paired
    with [Pr(X > x)].
    @raise Invalid_argument on empty input or a non-finite sample. *)

val kaplan_meier : (float * bool) array -> (float * float) array
(** [kaplan_meier observations] is the Kaplan–Meier product-limit survival
    estimate from [(duration, observed)] pairs where [observed = false]
    marks right-censoring (e.g. a trace that ended while the owner was still
    absent). Returns event-time/survival steps.
    @raise Invalid_argument on empty input or a non-finite duration. *)

val kaplan_meier_greenwood :
  (float * bool) array -> (float * float * float) array
(** [kaplan_meier_greenwood observations] augments {!kaplan_meier} with
    Greenwood's variance estimate: each step is
    [(t, S(t), stddev(S(t)))] where
    [Var(S) = S² · Σ_{events ≤ t} d_i / (n_i·(n_i − d_i))] ([d_i] deaths
    among [n_i] at risk). Steps where the at-risk set is exhausted get the
    last finite variance.
    @raise Invalid_argument on empty input or a non-finite duration. *)

val linear_regression : xs:float array -> ys:float array -> float * float
(** [linear_regression ~xs ~ys] fits [y = slope·x + intercept] by ordinary
    least squares, returning [(slope, intercept)].
    @raise Invalid_argument on mismatched lengths, [n < 2], or
    zero-variance [xs]. *)

val rmse : predicted:float array -> actual:float array -> float
(** Root-mean-square error between two equal-length vectors.
    @raise Invalid_argument on mismatch or empty input. *)

val max_abs_error : predicted:float array -> actual:float array -> float
(** L∞ error between two equal-length vectors.
    @raise Invalid_argument on mismatch or empty input. *)
