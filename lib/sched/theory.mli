(** Executable checks of the paper's structural theorems (§5).

    Each check takes a schedule believed optimal (or guideline-generated)
    and reports whether the corresponding claim holds, with the worst
    violation when it does not. They back the property-based test suite and
    experiment E7, and serve downstream users as sanity assertions when
    applying the library to new life functions. *)

type check = {
  name : string;
  holds : bool;
  detail : string;  (** Human-readable witness or worst-violation report. *)
}

val decrement_check : Life_function.t -> c:float -> Schedule.t -> check
(** Theorem 5.2 / Corollary 5.1: for concave [p], every internal period
    satisfies [t_{i+1} <= t_i − c] (and hence strict decrease); for convex
    [p], [t_{i+1} >= t_i − c]; each within 1e-7. Dispatches on the declared shape; for
    {!Life_function.Log_concave} and {!Life_function.Unknown}, which the
    theorem does not cover, the check passes vacuously, each with its
    own note. *)

val period_count_check : Life_function.t -> c:float -> Schedule.t -> check
(** Corollary 5.2/5.3: for concave [p] with lifespan [L], the schedule has
    fewer than [⌈sqrt(2L/c + 1/4) + 1/2⌉] periods and at most [t_0/c]
    periods. Vacuous for non-concave shapes. *)

val t0_bounds_check : Life_function.t -> c:float -> Schedule.t -> check
(** Theorems 3.2/3.3 (+ Corollary 5.5 for concave [p]): the schedule's
    initial period lies inside the computed bracket, within 1e-6
    relative. *)

val recurrence_check : Life_function.t -> c:float -> Schedule.t -> check
(** Corollary 3.1: consecutive periods satisfy eq. 3.6 with residual below
    1e-6 relative to [p]'s scale. *)

val local_optimality_check : Life_function.t -> c:float -> Schedule.t -> check
(** Theorem 5.1: for concave [p], a schedule satisfying the recurrence
    beats all its [±δ]-perturbations ({!Perturb.perturbation_margin} is
    [>= −tol]). Vacuous for single-period schedules and non-concave
    shapes. A trailing period of length [<= c] is stripped before the
    check: the theorem's algebra uses ordinary subtraction (justified by
    Prop 2.1 for all but the last period), and under positive subtraction
    such dead tails admit improving perturbations without contradicting
    the theorem. *)

val full_report : Life_function.t -> c:float -> Schedule.t -> check list
(** All checks above, in order. *)

val pp_check : Format.formatter -> check -> unit
