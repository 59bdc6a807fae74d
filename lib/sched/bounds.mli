(** Bounds on the optimal initial period length [t_0] (§3.3, §5.2).

    The recurrence determines every period except the first; the paper
    brackets the optimal [t_0] instead:

    - Theorem 3.2 (all differentiable [p]):
      [t_0 >= sqrt(c²/4 − c·p(t_0)/p'(t_0)) + c/2];
    - Theorem 3.3, convex [p], when [t_0 > 2c]:
      [t_0 <= 2·sqrt(c²/4 − c·p(t_0)/p'(t_0)) + c];
    - Theorem 3.3, concave [p], when [t_0 > 2c]: same with [p'(t_0/2)];
    - Corollaries 5.4/5.5 (concave [p] with lifespan [L]):
      [t_0 > sqrt(cL/2) + 3c/4] and [t_0 >= L/m + (m−1)c/2] given the
      period count [m].

    The theorem bounds are implicit (both sides mention [t_0]); this module
    resolves them as fixed points with bracketed root finding, and assembles
    a search bracket for {!Guideline}. *)

val lower_t0 : Life_function.t -> c:float -> float
(** [lower_t0 p ~c] solves the Theorem 3.2 relation as an equality: the
    returned value [t] satisfies [t = sqrt(c²/4 − c·p(t)/p'(t)) + c/2], and
    every optimal [t_0] is [>= t]. Requires [0 < c < horizon p]. Falls back
    to [c] if no fixed point is found (the trivial lower bound, since
    productive periods exceed [c]). *)

val upper_t0_convex : Life_function.t -> c:float -> float
(** [upper_t0_convex p ~c] resolves the convex Theorem 3.3 bound; the
    result is [max 2c t*] where [t*] is the largest fixed point of the
    bound (the theorem assumes [t_0 > 2c]). Falls back to [horizon p] when
    the fixed-point search fails. *)

val upper_t0_concave : Life_function.t -> c:float -> float
(** Concave counterpart of {!upper_t0_convex} (eq. 3.14, with [p'(t_0/2)]). *)

val bracket : Life_function.t -> c:float -> float * float
(** [bracket p ~c] is the [(lower, upper)] search interval for the optimal
    [t_0], dispatching on the declared shape of [p]: concave/convex pick
    their Theorem 3.3 bound, {!Life_function.Linear} takes the tighter of
    the two, and {!Life_function.Log_concave} and {!Life_function.Unknown},
    to which neither bound applies, fall back to [horizon p]. The
    interval is clipped to [(c, horizon p]] and is always nonempty. *)

val lower_t0_concave_lifespan : c:float -> lifespan:float -> float
(** Corollary 5.5's explicit lower bound [sqrt(cL/2) + 3c/4] for concave
    life functions with potential lifespan [L]. *)

val lower_t0_concave_periods : c:float -> lifespan:float -> m:int -> float
(** Corollary 5.4: [t_0 >= L/m + (m−1)·c/2] when the optimal schedule is
    known to have [m] periods. Requires [m >= 1]. *)

val max_periods_concave : c:float -> lifespan:float -> int
(** Corollary 5.3: the number of periods of an optimal schedule for a
    concave life function is [< ceil(sqrt(2L/c + 1/4) + 1/2)]; this returns
    that ceiling (an exclusive bound), or [max_int] where the ceiling is
    not below it or is not finite. Requires [c > 0] and [lifespan > 0]. *)
