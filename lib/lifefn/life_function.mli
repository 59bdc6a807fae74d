(** Life functions — the risk model of the paper (§2.1).

    A life function [p] gives, for each time [t], the probability that the
    borrowed workstation has not yet been reclaimed: [p 0 = 1] and [p]
    decreases monotonically, to [0] at a finite potential lifespan [L]
    (bounded episodes) or in the limit (unbounded episodes). The paper's
    guidelines additionally assume [p] is differentiable ("smooth"), with
    concavity/convexity unlocking the Theorem 3.3 upper bounds; this module
    carries that structure explicitly so every scheduler can dispatch on it. *)

type support =
  | Bounded of float  (** Potential lifespan [L]: [p t = 0] for [t >= L]. *)
  | Unbounded  (** [p] decreases to 0 only in the limit. *)

type shape =
  | Concave  (** [p'] nonincreasing (risk of interruption accelerates). *)
  | Convex  (** [p'] nondecreasing (episodes have a "half-life" flavour). *)
  | Linear  (** Both concave and convex — the uniform-risk scenario. *)
  | Log_concave
      (** [log p] concave, so the hazard [−p'/p] is nondecreasing (the
          risk of interruption never eases), for a [p] that is neither
          concave nor convex, such as Weibull with shape [> 1]. No
          Theorem 3.3 upper bound applies. *)
  | Unknown  (** No shape certificate; only the general bounds apply. *)

type t
(** A life function: [p] with its support, shape and inverse, checked
    as {!make} states. *)

type point = { mutable x : float; mutable p : float; mutable dp : float }
(** [p] and [p'] read at one instant [x], as {!eval_deriv} fills them.
    Every field is a float, so OCaml stores them flat and a write
    allocates nothing. A point belongs to one caller at a time: the
    planners that run on several domains each make their own. *)

exception Invalid_life_function of string
(** Raised by {!make} when the candidate violates [p 0 = 1], monotonicity,
    or range constraints on a sample grid, or disagrees with its declared
    inverse there. *)

val make :
  ?dp:(float -> float) ->
  ?fused:(float -> point -> unit) ->
  ?inv:(float -> float) ->
  ?shape:shape ->
  ?validate:bool ->
  name:string ->
  support:support ->
  (float -> float) ->
  t
(** [make ~name ~support p] wraps [p] as a life function. [?dp] supplies the
    exact derivative (otherwise finite differences on the support are used).
    [?fused] computes both at once, for a [p] whose value and slope share
    their costly part (an [exp], a [pow], an interpolant's segment
    search): [fused x pt] writes [p x] to [pt.p] and [dp x] to [pt.dp],
    the same bits the two closures give. {!eval_deriv} calls it only
    inside the support, [0 < x < L], and sets [pt.x] itself. Callers
    are trusted, as for the other closures; without it, {!eval_deriv}
    calls [p] and {!deriv}.
    [?inv] supplies the exact inverse [p⁻¹] on [(0, 1)]: [inv u] is the [t]
    with [p t = u]. Without it, {!inverse} solves [p t = u] numerically.
    [?shape] declares concavity, convexity or log-concavity — callers are
    trusted, but [?validate] (default [true]) samples [p] at 128 points of
    [[0, horizon]] to check [p 0 = 1] within 1e-9, values in [[0, 1]],
    monotone nonincrease, and, when [?inv] is given, [|p (inv v) − v| <=
    1e-9] at every sampled value [0 < v < 1]. On unbounded support it
    first runs {!horizon}'s doubling search, without its refusal.
    [?fused] is not sampled. The six closed-form paper families and
    {!Families.scale_time} pass [~validate:false], and {!condition}
    checks nothing either: their [p] is monotone with an exact inverse
    by construction, and the families' O(1) parameter guards admit it.
    A caller-built [p], {!Families.of_interpolant} and
    {!Families.power_law} keep the check.
    @raise Invalid_life_function on validation failure.
    @raise Invalid_argument when [?fused] is given without [?dp]. *)

val name : t -> string
val support : t -> support
val shape : t -> shape

val inverse : t -> float -> float
(** [inverse p u] is the [t] with [p t = u], for [u] in [(0, 1)]: the
    [?inv] given to {!make}, or else Brent's method on [[0, L]], or for
    unbounded support on the first of [[0, 1]], [[1, 2]], [[2, 4]], ...
    (200 doublings at most) where [p] drops to [u]; [infinity] if it
    never does. The recurrence step and reclaim sampling both use it. *)

val eval : t -> float -> float
(** [eval p t] is [p(t)], clamped to [1] for [t <= 0] and to [0] beyond a
    bounded lifespan, so schedulers may probe slightly outside the support
    without special-casing. *)

val deriv : t -> float -> float
(** [deriv p t] is [p'(t)] — exact if supplied to {!make}, otherwise a
    support-aware finite difference. At a bounded lifespan's edge the
    one-sided derivative is used. *)

val point : unit -> point
(** A fresh point, at no instant yet: all three fields are [nan]. *)

val eval_deriv : t -> float -> point -> unit
(** [eval_deriv p x pt] reads [p] and [p'] at [x] into [pt], with one
    call of the [?fused] closure when {!make} was given one, and of [p]
    and {!deriv} otherwise. It sets [pt.x] to [x] and [pt.p] to
    [eval p x], bit for bit. Inside the support ([0 < x], and [x < L]
    when bounded) it sets [pt.dp] to [deriv p x], bit for bit. Where
    {!eval} clamps ([x <= 0], or [x >= L]) it takes no derivative and
    sets [pt.dp] to [0], the slope of the clamp: the numerical
    derivative is undefined beyond [L], and a caller's [?dp] need not
    be defined outside the support. A [?fused] closure that reads
    another life function's point, as {!Families.scale_time}'s does,
    inherits that function's clamp, so within a rounding of the
    support's ends its [dp] can be that [0]. The recurrence step reads
    [p] and [p'] at each period end through it. *)

val horizon : t -> float
(** [horizon p] is the lifespan [L] for bounded support, and for unbounded
    support the first of [1, 2, 4, ...] where [p] is at most 1e-12 — a
    practical integration/search limit. The search doubles while the
    double is finite, up to [2^1023].
    @raise Invalid_argument when an unbounded [p] is still above 1e-12
    at [2^1023], such as exponential of rate [1e-308]: no float bounds
    the horizon, so no plan or sampler can cover it. *)

val condition : t -> elapsed:float -> t option
(** [condition p ~elapsed] is the conditional life function given
    survival to [elapsed], [s ↦ p(elapsed + s) / p(elapsed)], that §6's
    progressive scheduler plans against, or [None] when
    [p elapsed <= 0]. Its support is [p]'s shifted by [elapsed] (a
    lifespan [L] becomes [L − elapsed]); its declared shape is [p]'s,
    since conditioning rescales [p] and shifts time; its inverse is
    composed from [p]'s, [u ↦ p⁻¹(u · p(elapsed)) − elapsed]; and its
    point at [s] is [p]'s point at [elapsed + s] ({!eval_deriv}), divided
    by [p(elapsed)]. At [elapsed = 0.] it agrees with [p] bit for bit in
    {!eval}, {!deriv} and {!inverse}. It is not validated, and its name
    is [p]'s with [" | survived"] appended.
    @raise Invalid_argument unless [elapsed >= 0]. *)

val mean_lifetime : t -> float
(** [mean_lifetime p] is [E(reclaim time) = ∫₀^∞ p(t) dt], by adaptive
    quadrature over the support. *)

val quantile_time : t -> q:float -> float
(** [quantile_time p ~q] is [inverse p q]: the [t] with [p t = q], i.e.
    the [(1-q)]-quantile of the reclaim time. Requires [0 < q < 1]. *)

val classify_shape : t -> shape
(** [classify_shape p] estimates the shape numerically by testing the sign
    of [p''] on a grid of 256 points over the support interior,
    ignoring the declared shape. Returns {!Unknown} when the samples mix
    signs beyond tolerance, and never {!Log_concave}, which only a
    family's declaration certifies. Useful for trace-derived functions. *)

val pp : Format.formatter -> t -> unit
(** Prints name, support and shape. *)
