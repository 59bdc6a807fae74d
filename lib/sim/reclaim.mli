(** Sampling reclaim times from a life function.

    The paper treats [p] as the survival function of the owner's return
    time; the simulator needs actual draws from that distribution, by
    inverse-CDF sampling: solve [p(t) = u] for uniform [u]. A sampler
    takes one of two forms, chosen by the life function it is built from:
    - when [p] carries an exact inverse ({!Life_function.inverse}; every
      {!Families} constructor except [power_law] and [of_interpolant]
      does), each draw is one call to [p⁻¹];
    - otherwise (trace-fitted or caller-built [p]) a monotone interpolated
      inverse is tabulated once, which makes per-episode sampling cheap
      for Monte-Carlo runs at the cost of a small interpolation error. *)

type sampler
(** A reusable sampler for one life function. *)

val create : Life_function.t -> sampler
(** [create p] builds the sampler for [p] over [[0, horizon p]]. If [p]
    has an exact inverse, draws invert it directly; otherwise [create]
    tabulates [p] at 4097 evenly spaced points over the horizon and builds
    a PCHIP inverse from them. Both forms clamp draws to
    [[0, horizon p]]. *)

val draw : sampler -> Prng.t -> float
(** [draw s g] samples a reclaim time: a value [t] with
    [Pr(T > t) = p(t)]. Bounded-support functions return at most the
    lifespan. *)

val draw_exact : Life_function.t -> Prng.t -> float
(** [draw_exact p g] inverts [p] by bisection per draw — slower but free of
    tabulation error; used by tests to validate {!draw}. *)

val mean_of_draws : sampler -> Prng.t -> n:int -> float
(** [mean_of_draws s g ~n] averages [n] draws — convenience for calibration
    tests against {!Life_function.mean_lifetime}. Requires [n > 0]. *)
