(** Special functions needed by the closed-form schedules.

    The optimal equal-period equation of the geometric-decreasing scenario
    (paper §4.2), [t + a^{-t}/ln a = c + 1/ln a], is solved exactly with the
    Lambert W function; the trace-fitting code clamps its survival
    estimates into [[0, 1]]. *)

val lambert_w0 : float -> float
(** [lambert_w0 x] is the principal branch W₀ of the Lambert W function —
    the solution [w >= -1] of [w · e^w = x] — for [x >= -1/e], computed by
    Halley iteration to near machine precision.
    @raise Invalid_argument for [x < -1/e]. *)

val log2 : float -> float
(** Base-2 logarithm. *)

val smooth_clamp01 : float -> float
(** [smooth_clamp01 x] clamps [x] into [[0, 1]]; NaN maps to [0.]. Survival
    estimates assembled from noisy traces pass through this before being
    promoted to life functions. *)
