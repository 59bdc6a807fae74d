(** The life-function families of the paper.

    Sections 3.1 and 4 study three scenario families from
    Bhatt–Chung–Leighton–Rosenberg [3] — uniform risk, geometric-decreasing
    lifespan, geometric-increasing risk — plus the polynomial generalisation
    [p_{d,L}] of uniform risk and the inadmissible power-law family of
    Corollary 3.2. All constructors return fully-validated
    {!Life_function.t} values carrying exact derivatives, declared shapes
    and exact inverses [p⁻¹] (see {!Life_function.inverse}): closed-form
    for every family, and the interpolant's own for {!of_interpolant}.
    Where p and p′ share their costly part ({!geometric_decreasing},
    {!exponential}, {!weibull}, {!of_interpolant} and {!scale_time}),
    the constructor also gives {!Life_function.make} a fused closure,
    so that {!Life_function.eval_deriv} computes both at once. *)

val uniform : lifespan:float -> Life_function.t
(** [uniform ~lifespan] is [p(t) = 1 - t/L] — uniform risk across the
    episode (§3.1 scenario 3). Both concave and convex ({!Life_function.Linear}).
    Requires a finite [lifespan > 0]. *)

val polynomial : d:int -> lifespan:float -> Life_function.t
(** [polynomial ~d ~lifespan] is [p_{d,L}(t) = 1 - t^d/L^d] (§4.1), concave
    for [d >= 2] and equal to {!uniform} at [d = 1].
    Requires [d >= 1] and a finite [lifespan > 0]. *)

val geometric_decreasing : a:float -> Life_function.t
(** [geometric_decreasing ~a] is [p_a(t) = a^{-t}] (§3.1 scenario 2, §4.2):
    an unbounded episode with a "half-life". Convex.
    Requires a finite [a > 1]. *)

val exponential : rate:float -> Life_function.t
(** [exponential ~rate] is [p(t) = e^{-rate·t}], the natural
    parameterisation of {!geometric_decreasing} ([a = e^rate]).
    Requires a finite [rate > 0]. *)

val geometric_increasing : lifespan:float -> Life_function.t
(** [geometric_increasing ~lifespan] is [p(t) = (2^L - 2^t)/(2^L - 1)]
    (§3.1 scenario 1, §4.3): the risk of interruption doubles each time
    unit, the "coffee break" model. Concave. Computed in the
    overflow-stable form [(1 - 2^{t-L})/(1 - 2^{-L})].
    Requires a finite [lifespan > 0]. *)

val weibull : shape:float -> scale:float -> Life_function.t
(** [weibull ~shape ~scale] is [p(t) = exp(-(t/scale)^shape)]: the standard
    lifetime model used when fitting owner traces; convex for [shape <= 1],
    neither convex nor concave globally for [shape > 1], where
    [log p = −(t/scale)^shape] is concave and the hazard increases
    (declared {!Life_function.Log_concave}). Requires finite [shape > 0]
    and [scale > 0]. *)

val power_law : d:float -> Life_function.t
(** [power_law ~d] is [p(t) = 1/(t+1)^d]. For [d > 1] this is the paper's
    Corollary 3.2 example of a life function admitting {e no} optimal
    schedule; kept for the E11 experiment and negative tests. Convex.
    Requires a finite [d > 0]. *)

val of_interpolant : name:string -> Interp.t -> Life_function.t
(** [of_interpolant ~name ip] promotes a monotone interpolant (typically a
    PCHIP fit of a trace survival estimate, see [Cs_trace]) to a life
    function with bounded support at the last knot. Values are clamped to
    [[0, 1]]; the knot at 0 must carry value 1 within 1e-6. Its inverse is
    {!Interp.inverse}: a Kaplan–Meier plateau maps to its start.
    @raise Life_function.Invalid_life_function if the interpolant is not a
    valid survival curve, or a knot value rises above its predecessor. *)

val scale_time : factor:float -> Life_function.t -> Life_function.t
(** [scale_time ~factor p] is the life function [t ↦ p(t / factor)] —
    stretches the episode by [factor] (e.g. convert minutes to seconds).
    Preserves shape (a linear change of time keeps [p] and [log p]
    concave or convex) and the inverse ([u ↦ factor · p⁻¹ u]). Its fused
    evaluation reads [p]'s own point at [t / factor]; that agrees with
    its [dp] wherever [t / factor] lies inside [p]'s support, so
    everywhere inside this support but within a rounding of its ends.
    Requires a finite [factor > 0]. *)

val all_paper_scenarios :
  c:float -> (string * Life_function.t) list
(** [all_paper_scenarios ~c] is a labelled list of representative instances
    of the three §4 scenarios with lifespans/rates scaled sensibly for
    overhead [c]; used by tests and benches to sweep "every scenario the
    paper evaluates". *)
