(** The explicit §4 formulas: per-family [t_0] brackets, and the
    provably-optimal values and recurrence re-derived from Bhatt–Chung–
    Leighton–Rosenberg [3]. These are the "paper numbers" that the E1–E5
    experiments print next to what the generic machinery ({!Bounds},
    {!Recurrence}, {!Optimizer}) computes. *)

(** {1 Polynomial family [p_{d,L}(t) = 1 − t^d/L^d] (§4.1)} *)

val poly_t0_lower : d:int -> c:float -> lifespan:float -> float
(** The simplified §4.1 lower bound [(c/d)^{1/(d+1)} · L^{d/(d+1)}]. *)

val poly_t0_upper : d:int -> c:float -> lifespan:float -> float
(** The simplified §4.1 upper bound [2·(c/d)^{1/(d+1)} · L^{d/(d+1)} + 1]. *)

(** {1 Uniform risk [p(t) = 1 − t/L] (d = 1 case; §4.1, eqs. 4.4–4.5)} *)

val uniform_t0_lower : c:float -> lifespan:float -> float
(** [sqrt(cL)] (eq. 4.4, left). *)

val uniform_t0_upper : c:float -> lifespan:float -> float
(** [2·sqrt(cL) + 1] (eq. 4.4, right). *)

val uniform_t0_optimal : c:float -> lifespan:float -> float
(** [sqrt(2cL)] — [3]'s optimal initial period up to low-order terms
    (eq. 4.5). *)

val uniform_optimal_m : c:float -> lifespan:float -> int
(** [⌊sqrt(2L/c + 1/4) + 1/2⌋] — the optimal period count for the uniform
    scenario ([3]; the paper notes Cor 5.3 is this with ceilings). *)

(** {1 Geometric-decreasing [p_a(t) = a^{−t}] (§4.2)} *)

val geo_dec_t0_lower : a:float -> c:float -> float
(** [sqrt(c²/4 + c/ln a) + c/2] (§4.2). *)

val geo_dec_t0_upper : a:float -> c:float -> float
(** [c + 1/ln a] (§4.2) — remarkably close to the optimal value. *)

val geo_dec_t_optimal : a:float -> c:float -> float
(** The exact optimal (all-equal) period from [3]: the unique positive
    solution of [t + a^{−t}/ln a = c + 1/ln a], obtained in closed form via
    the principal Lambert-W branch. Requires [a > 1], [c > 0]. *)

(** {1 Geometric-increasing risk [p(t) = (2^L − 2^t)/(2^L − 1)] (§4.3)} *)

val geo_inc_next_period_optimal : t_prev:float -> c:float -> float option
(** [3]'s optimal recurrence: [t_{k+1} = log₂(t_k − c + 2)]; [None] when
    the argument is [<= 1]. *)

val geo_inc_t0_estimate : lifespan:float -> float
(** The §4.3 asymptotic estimate [t_0 ≈ L / (log₂ L)²] (up to low-order
    additive terms). Requires [lifespan > 1]. *)
