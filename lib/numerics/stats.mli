(** Descriptive statistics, confidence intervals and survival estimation.

    The Monte-Carlo estimate (E8) needs the mean, variance and confidence
    interval of a sample it keeps as counts of equal values; the trace
    fits need means, and the trace reports and benchmarks quantiles; the
    trace pipeline (E10) needs empirical survival curves —
    both the plain ECDF complement and the Kaplan–Meier estimator for
    right-censored absence intervals — and the error of a fitted curve. *)

val mean : float array -> float
(** Compensated arithmetic mean. @raise Invalid_argument on empty input. *)

val tally_mean_variance :
  counts:int array -> value:(int -> float) -> float * float
(** [tally_mean_variance ~counts ~value] is [(mean, variance)] of the
    sample of [n = Σ counts.(j)] values that holds [counts.(j)] copies of
    [value j]: two compensated passes over the populated slots, the mean,
    then the squared deviations from it. The variance is the unbiased
    [(n - 1)] one. [value j] is read only where [counts.(j) > 0].
    @raise Invalid_argument on a negative count or when [n < 2]. *)

val ci95 : mean:float -> variance:float -> n:int -> float * float
(** [ci95 ~mean ~variance ~n] is the normal-approximation 95% CI
    [(mean - 1.96·se, mean + 1.96·se)], [se = sqrt variance / sqrt n],
    for the population mean of a sample of [n] with that sample mean and
    variance. @raise Invalid_argument when [n < 2]. *)

val quantile : float array -> q:float -> float
(** [quantile a ~q] is the linearly-interpolated empirical [q]-quantile
    (type-7). Requires [0 <= q <= 1]; sorts a copy.
    @raise Invalid_argument on empty input or [q] out of range. *)

val quantiles : float array -> qs:float list -> float list
(** [quantiles a ~qs] is [List.map (fun q -> quantile a ~q) qs], bit for
    bit, from one sorted copy of [a].
    @raise Invalid_argument on empty input or any [q] out of range. *)

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

val rmse : predicted:float array -> actual:float array -> float
(** Root-mean-square error between two equal-length vectors.
    @raise Invalid_argument on mismatch or empty input. *)
