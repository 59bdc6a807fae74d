(** Sampling reclaim times from a life function.

    The paper treats [p] as the survival function of the owner's return
    time; the simulator needs actual draws from that distribution, by
    inverse-CDF sampling: solve [p(t) = u] for uniform [u]. Every draw is
    one call to {!Life_function.inverse}: closed-form for the paper
    families, the exact inverse of the interpolant for trace-fitted [p],
    and a bracketed numerical solve for a caller-built [p] given without
    one. *)

type sampler
(** A reusable sampler for one life function. *)

val create : Life_function.t -> sampler
(** [create p] builds the sampler for [p]; its draws clamp to
    [[0, horizon p]]. *)

val draw : sampler -> Prng.t -> float
(** [draw s g] samples a reclaim time: a value [t] with
    [Pr(T > t) = p(t)]. Bounded-support functions return at most the
    lifespan. *)
