(** Numerical differentiation.

    Trace-estimated life functions come without an analytic derivative, yet
    the recurrence (paper eq. 3.6) and every [t_0] bound consume [p'].
    These finite-difference schemes supply the fallback derivative. *)

val central : ?h:float -> (float -> float) -> float -> float
(** [central f x] is the central difference
    [(f (x+h) - f (x-h)) / 2h] with a step scaled to [x] (default base step
    [~cbrt eps * max 1 |x|]), the O(h²) workhorse. *)

val forward : ?h:float -> (float -> float) -> float -> float
(** [forward f x] is the one-sided O(h) difference, for points on the left
    edge of a function's support where [x - h] would be invalid. *)

val backward : ?h:float -> (float -> float) -> float -> float
(** [backward f x] is the one-sided O(h) difference from the left, for the
    right edge of a support interval. *)

val second : ?h:float -> (float -> float) -> float -> float
(** [second f x] is the standard O(h²) three-point second derivative,
    used by the shape classifier to test concavity/convexity. *)

val derivative_on_support :
  lo:float -> hi:float -> (float -> float) -> float -> float
(** [derivative_on_support ~lo ~hi f x] picks central, forward or backward
    differencing so that no evaluation leaves [[lo, hi]]; [hi] may be
    [infinity]. Steps shrink automatically near the edges. *)
