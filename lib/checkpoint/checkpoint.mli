(** Scheduling saves in fault-prone computations — the paper's Remark in §1
    maps its model onto the checkpointing problem of
    Coffman–Flatto–Krenin (Acta Informatica 30, 1993), the paper's
    reference [7]. This module realises that adaptation.

    Correspondence: a computation runs on a machine whose time-to-failure
    has survival function [p]; writing a checkpoint costs [c]; work since
    the last completed checkpoint is lost at a failure. Partition the run
    into intervals [t_0, t_1, ...], checkpointing at the end of each: the
    expected work safely committed before the first failure is exactly
    eq. 2.1, so every scheduler in {!Guideline}/{!Exact}/{!Optimizer}
    transfers verbatim. Beyond the single-failure horizon of the paper, the
    simulator here also plays the full repair–restart process to measure
    end-to-end makespan of a job of fixed length. *)

type plan = {
  intervals : Schedule.t;
      (** Interval lengths; a checkpoint (cost [c]) ends each one. *)
  expected_committed : float;
      (** Expected work committed before the first failure (eq. 2.1). *)
}

val plan_saves :
  ?work:float -> Life_function.t -> c:float -> plan
(** [plan_saves p ~c] derives the guideline checkpoint plan for failure
    survival [p] and save cost [c]. With [?work] the plan is truncated once
    the committed (productive) time covers [work]; the final interval is
    shortened to fit exactly. Requires [0 < c < horizon p]; a finite
    [work > 0] when given.
    @raise Invalid_argument otherwise. *)

type sim_result = {
  makespan : float;  (** Wall-clock to finish the whole job. *)
  failures : int;
  work_lost_total : float;
  checkpoints_written : int;
}

val simulate_restarts :
  work:float ->
  c:float ->
  restart_cost:float ->
  Life_function.t ->
  Prng.t ->
  max_failures:int ->
  sim_result
(** [simulate_restarts ~work ~c ~restart_cost p g ~max_failures] plays the
    repeated-failure process: run the guideline plan; on failure, pay
    [restart_cost], resume from the last committed checkpoint with a fresh
    failure clock (machine-renewal assumption), replanning for the
    remaining work. Gives up after [max_failures] failures.
    @raise Invalid_argument if parameters are nonpositive or NaN, [work]
    or [restart_cost] is infinite, or the job cannot make progress (no
    productive interval exists). *)
