(** Cycle-stealing schedules and the expected-work functional (§2.1).

    A schedule is the sequence of period lengths [t_0, t_1, ...] into which
    workstation A partitions workstation B's potential availability. Each
    period of length [t] yields [t ⊖ c] work if B survives to the period's
    end, where [c] is the combined communication overhead and [⊖] is
    positive subtraction. The paper's objective (eq. 2.1) is

    [E(S; p) = Σ_i (t_i ⊖ c) · p(T_i)],   [T_i = t_0 + ... + t_i].

    Infinite schedules (needed by the geometric-decreasing scenario) are
    represented by finite truncations: generators in this library cut the
    tail once [p(T_i)] falls below 1e-15, whose contribution to [E] is below
    any tolerance used elsewhere. *)

type t = private {
  periods : float array;  (** [t_0, t_1, ...], every one finite and > 0. *)
  ends : float array;
      (** [T_i = t_0 + ... + t_i], the compensated prefix sums of
          [periods] ([Kahan.cumulative]). *)
}
(** A finite schedule; immutable. The record is private so that hot
    loops (the episode replay, the recurrence residuals) read both
    arrays in place instead of copying them per call. The fields are
    read-only views: writing to either array breaks the invariant
    [ends = Kahan.cumulative periods] for every holder of the schedule.
    A caller that wants an array of its own takes {!periods}. *)

exception Invalid_schedule of string

val of_periods : float array -> t
(** [of_periods ts] validates that every period is finite and strictly
    positive and copies the array.
    @raise Invalid_schedule otherwise (including on the empty array). *)

val of_list : float list -> t
(** List counterpart of {!of_periods}. *)

val periods : t -> float array
(** A copy of the period lengths, for a caller that mutates it. Read
    [s.periods] in place otherwise. The completion times have no
    accessor at all (there is no [completion_times]): read [s.ends]. *)

val num_periods : t -> int

val period : t -> int -> float
(** [period s k] is [t_k]. @raise Invalid_argument when out of range. *)

val total_duration : t -> float
(** [total_duration s] is [T_{m-1}], the episode time the schedule uses. *)

val positive_sub : float -> float -> float
(** [positive_sub x y] is the paper's [x ⊖ y = max 0 (x - y)]. *)

val work_capacity : c:float -> t -> float
(** [work_capacity ~c s] is [Σ (t_i ⊖ c)] — the work accomplished if the
    workstation is never reclaimed. *)

val expected_work : c:float -> Life_function.t -> t -> float
(** [expected_work ~c p s] is the paper's objective (eq. 2.1), computed with
    compensated summation: {!work_add} folded over the periods of [s].
    Requires [c >= 0]. *)

type work
(** Eq. 2.1 accumulated one period at a time, for a caller that produces
    periods without building a schedule: a compensated sum of the ends
    [T_i], and a compensated sum of the terms [(t_i ⊖ c)·p(T_i)]. *)

val work_start : unit -> work
(** A fresh accumulator: no periods, [E = 0]. *)

val work_add :
  work -> c:float -> Life_function.t -> at:Life_function.point -> float ->
  unit
(** [work_add acc ~c p ~at t] appends a period of length [t]. Feeding
    [t_0, t_1, ...] in order gives the arithmetic of {!expected_work},
    so {!work_total} equals it bit for bit on the schedule of those
    periods. [at] is a point of [p] the caller already holds
    ({!Life_function.eval_deriv}): when [at.x] is the period's
    compensated end [T_i], bit for bit, its [at.p] is taken for
    [p(T_i)]; at any other end [p] is evaluated. Either way the term is
    the same. A fresh {!Life_function.point} never matches. *)

val work_total : work -> float
(** [E] of the periods added so far. *)

val expected_work_detail :
  c:float -> Life_function.t -> t -> (float * float * float) array
(** [expected_work_detail ~c p s] returns per-period rows
    [(t_i, T_i, (t_i ⊖ c)·p(T_i))] — the summands of {!expected_work} —
    for reporting and debugging. *)

val productive_normal_form : c:float -> t -> t
(** [productive_normal_form ~c s] applies the Proposition 2.1
    transformation: every period of length [<= c] (which can complete no
    work) is merged into its successor, so that all periods except possibly
    the last exceed [c]. The result satisfies
    [expected_work ~c p s' >= expected_work ~c p s] for every life function
    [p], because merging preserves later completion times and can only
    lengthen the productive part of the absorbing period. *)

val append : t -> float -> t
(** [append s t] extends the schedule with one final period of length [t].
    @raise Invalid_schedule if [t <= 0] or not finite. *)

val equal : ?tol:float -> t -> t -> bool
(** Period-wise comparison within absolute tolerance [tol] (default 1e-9). *)

val pp : Format.formatter -> t -> unit
(** Prints up to the first 8 periods and the total duration. *)
