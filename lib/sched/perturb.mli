(** Shifts and perturbations of schedules — the proof machinery of
    Theorems 3.1 and 5.1, made executable.

    A [⟨k, ±δ⟩]-shift lengthens or shortens period [k] alone (changing the
    schedule's total duration); a [[k, ±δ]]-perturbation moves [δ] between
    periods [k] and [k+1] (preserving total duration). Theorem 3.1 derives
    the recurrence by showing optimal schedules beat all shifts; Theorem 5.1
    shows schedules satisfying the recurrence beat all perturbations when
    [p] is concave. The test suite and experiment E7 verify both claims on
    generated schedules. *)

val shift : Schedule.t -> k:int -> delta:float -> Schedule.t option
(** [shift s ~k ~delta] is [S^⟨k,+δ⟩] (or [S^⟨k,−δ⟩] for negative
    [delta]): period [k] becomes [t_k + delta]. [None] if the new period
    would be nonpositive. @raise Invalid_argument if [k] is out of range. *)

val perturb : Schedule.t -> k:int -> delta:float -> Schedule.t option
(** [perturb s ~k ~delta] is [S^[k,+δ]] (negative [delta] gives
    [S^[k,−δ]]): period [k] becomes [t_k + delta] and period [k+1] becomes
    [t_{k+1} − delta]. [None] if either new period would be nonpositive.
    @raise Invalid_argument if [k+1] is out of range. *)

type margin = {
  worst_delta : float;  (** The δ achieving the minimum margin. *)
  worst_k : int;  (** The period index achieving it. *)
  margin : float;
      (** [min E(S) − E(S')] over tested perturbations; nonnegative iff [S]
          beat them all. *)
}

val perturbation_margin :
  ?deltas:float array -> ?min_period:float ->
  Life_function.t -> c:float -> Schedule.t -> margin
(** [perturbation_margin p ~c s] evaluates [E(S) − E(S')] for every
    [[k, ±δ]]-perturbation with δ drawn from [deltas] (default
    [{0.001, 0.01, 0.05, 0.25} × min period]) and returns the worst case —
    the empirical Theorem 5.1 check. Requires at least 2 periods.

    A perturbation moves the end [T_k] alone, so each margin is the
    change of eq. 2.1's terms [k] and [k+1], computed in O(1) without
    copying the schedule, and the sweep is O(n). It matches the full
    recompute [E(S) − E(S')] to rounding at the scale of a term, where
    the full recompute cancels at the scale of [E].

    Theorem 5.1 is proved with ordinary subtraction, valid exactly while
    every period stays above [c]; a perturbation that drags a period below
    [c] converts part of it into dead time under eq. 2.1's positive
    subtraction and can "win" without contradicting the theorem. Pass
    [~min_period:c] (as {!Theory.local_optimality_check} does) to restrict
    the sweep to the theorem's domain; the default [0.] sweeps all valid
    schedules. *)
