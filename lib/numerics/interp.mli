(** Interpolation on sampled grids.

    Trace-estimated survival curves arrive as a monotone sequence of sample
    points; the scheduler needs a differentiable life function through them.
    The monotone cubic (Fritsch–Carlson PCHIP) interpolant preserves
    monotonicity — essential because a life function must decrease — while
    providing a continuous derivative for the recurrence engine. *)

type t
(** An interpolant over a fixed strictly-increasing knot grid. *)

exception Bad_grid of string
(** Raised by constructors on unsorted, duplicated or too-short grids. *)

val linear : xs:float array -> ys:float array -> t
(** [linear ~xs ~ys] is the piecewise-linear interpolant through the points
    [(xs.(i), ys.(i))]. Requires [xs] strictly increasing and arrays of equal
    length >= 2.
    @raise Bad_grid otherwise. *)

val pchip : xs:float array -> ys:float array -> t
(** [pchip ~xs ~ys] is the Fritsch–Carlson monotone piecewise-cubic Hermite
    interpolant: C¹, and monotone on every interval where the data are.
    Requirements as for {!linear}.
    @raise Bad_grid otherwise. *)

val eval : t -> float -> float
(** [eval ip x] evaluates the interpolant. Outside the grid, the boundary
    segment is extrapolated (linearly for {!linear}; by the boundary cubic
    for {!pchip}); callers who need clamping should compose with
    {!val-domain}. *)

val derivative : t -> float -> float
(** [derivative ip x] is the exact derivative of the interpolant at [x]
    (piecewise-constant for {!linear}). *)

val eval_deriv : t -> float -> float * float
(** [eval_deriv ip x] is [(eval ip x, derivative ip x)], bit for bit,
    from one segment search instead of two. *)

val inverse : t -> float -> float
(** [inverse ip y], for knot values that never increase, is the earliest
    [x] in {!val-domain} with [eval ip x <= y]: a plateau at [y] maps to
    its start, and [y] outside the knot values to an end of the domain.
    A binary search finds the crossing piece, and safeguarded Newton its
    root, to a residual of 1e-16 or a step of 1e-14 of the piece. Applying
    [inverse ip] checks the knots once; the function it returns allocates
    only its boxed result.
    @raise Bad_grid if a knot value is above its predecessor. *)

val domain : t -> float * float
(** [domain ip] is the [(min, max)] of the knot grid. *)

val knots : t -> (float * float) array
(** [knots ip] returns a copy of the defining points. *)
