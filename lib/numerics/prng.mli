(** Deterministic pseudo-random number generation.

    Every stochastic component in this repository (reclaim-time sampling,
    trace synthesis, Monte-Carlo trials, property-test fixtures) takes an
    explicit generator state so experiments are exactly reproducible from a
    seed. The core generator is xoshiro256++, seeded through splitmix64 as
    its authors recommend; [split] derives statistically independent child
    streams for parallel or per-workstation use. *)

type t
(** Mutable generator state: 256 bits held unboxed, so a draw allocates
    nothing inside the generator. {!next_int64} allocates only its boxed
    [int64] result (3 minor words) and {!float} only its boxed [float]
    (2 words). *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator whose 256-bit state is expanded from
    [seed] with splitmix64. Any seed, including [0L], is valid. *)

val copy : t -> t
(** [copy g] is an independent generator starting from [g]'s current
    state: advancing either one leaves the other's stream unchanged. *)

val split : t -> t
(** [split g] advances [g] and returns a child generator seeded from fresh
    output of [g]; child and parent streams do not overlap in practice. *)

val split_n : t -> int -> t array
(** [split_n g n] is [n] child generators drawn from [g] by {!split} in
    index order — the chunk-stream grid of the parallel execution layer:
    chunk [k] of a partitioned computation always owns stream [k],
    whatever domain runs it, so results cannot depend on the domain
    count. Requires [n >= 0]. *)

val next_int64 : t -> int64
(** [next_int64 g] is the next raw 64-bit output. *)

val float : t -> float
(** [float g] is uniform on [[0, 1)] with 53 random bits of mantissa. *)

val float_range : t -> lo:float -> hi:float -> float
(** [float_range g ~lo ~hi] is uniform on [[lo, hi)]. Requires [lo < hi]. *)

val int : t -> bound:int -> int
(** [int g ~bound] is uniform on [{0, ..., bound-1}] without modulo bias.
    Requires [bound > 0]. *)

val bool : t -> bool
(** [bool g] is a fair coin flip. *)

val exponential : t -> rate:float -> float
(** [exponential g ~rate] samples Exp(rate) by inversion.
    Requires [rate > 0]. *)

val normal : t -> mu:float -> sigma:float -> float
(** [normal g ~mu ~sigma] samples a Gaussian by Marsaglia's polar method.
    Requires [sigma >= 0]. *)

val weibull : t -> shape:float -> scale:float -> float
(** [weibull g ~shape ~scale] samples Weibull(shape, scale) by inversion.
    Requires [shape > 0] and [scale > 0]. *)

