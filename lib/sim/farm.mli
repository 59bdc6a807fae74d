(** A data-parallel task farm over a network of workstations — the
    motivating deployment of §1, built as a discrete-event simulation.

    A master (workstation A) owns a pool of independent work and steals
    cycles from a fleet of borrowed workstations. Each workstation's owner
    alternates presence (exponentially distributed) with absence; an
    absence is a cycle-stealing episode whose duration is distributed
    according to that workstation's life function. During an episode the
    master supplies one bundle per period under a pluggable policy; a
    period that completes banks its work, and an owner's return kills the
    in-flight period, whose work returns to the pool (the draconian
    contract).

    A period completing exactly at the owner's return counts as completed,
    consistent with {!Episode.run}. Communication is charged [c] per
    started period; by default there is no link contention — the same
    architecture-independence assumption as the paper's model ([9]) — but
    {!run} can serialize the master's link to measure when that assumption
    breaks (experiment E14). *)

type policy = {
  policy_name : string;
  fresh_episode : Life_function.t -> c:float -> (elapsed:float -> float option);
      (** The per-workstation stage. A workstation's [(p, c)] is fixed
          for the run, so {!run} calls this at most once per workstation
          per run, at that workstation's first episode, and keeps the
          returned closure for all of its episodes. Nothing outlives the
          run.

          The closure is called at each period start with the time
          elapsed in the current episode, and yields the next period
          length, or [None] to idle for the rest of the episode. [elapsed]
          is [0.] exactly at an episode's first period and [> 0.] at every
          later one, so a closure with per-episode state resets it at
          [0.]. An episode that starts with an empty pool makes no call.
          Periods are clipped to the work remaining in the pool. *)
}

val guideline_policy : policy
(** Plays the {!Guideline.plan} schedule of each workstation's [(p, c)],
    planned once per workstation per run, period by period from its first
    period in every episode. *)

val adaptive_policy : policy
(** The §6 "progressive" scheduler using conditional probabilities: each
    workstation's closure is {!Guideline.progressive}. It answers every
    period start as {!Guideline.next_period_online} would, within 1e-6
    relative: at an episode start it replays the plan of [p], made at the
    workstation's first call; at a later period it returns eq. 3.6's
    continuation where a three-point check of the conditional's expected
    work certifies it, and runs the full conditional plan elsewhere (a
    clipped or link-delayed period, a trace fit). On an unclipped episode
    it plays the {!guideline_policy} schedule, up to rounding. *)

val greedy_policy : policy
(** Myopic per-period maximisation ({!Greedy.first_period} at each step). *)

val fixed_chunk_policy : chunk:float -> policy
(** Constant period length regardless of risk. Requires [chunk > 0]. *)

type workstation_config = {
  ws_life : Life_function.t;  (** Absence-duration survival function. *)
  ws_presence_mean : float;  (** Mean of the exponential presence time. *)
}

type config = {
  c : float;  (** Communication overhead per period. *)
  total_work : float;  (** Task-pool size to complete. *)
  workstations : workstation_config list;
  policy : policy;
  max_time : float;  (** Simulation cutoff. *)
}

type ws_stats = {
  ws_id : int;
  work_done : float;
  work_lost : float;
  overhead : float;
  episodes : int;
  periods_completed : int;
  periods_killed : int;
}

type report = {
  finished : bool;  (** [true] iff the pool emptied before [max_time]. *)
  makespan : float;  (** Time the pool emptied, or [max_time]. *)
  pool_remaining : float;
  total_done : float;
  total_lost : float;
  total_overhead : float;
  per_workstation : ws_stats list;
}

type link_model =
  | Unlimited
      (** The paper's architecture-independent assumption: any number of
          simultaneous dispatches. *)
  | Serialized
      (** The master's link admits one [c]-long dispatch at a time; a
          period whose dispatch must wait starts (and ends) later, and an
          owner returning during the wait kills it like any in-flight
          period. Collection is folded into the same [c], per the model's
          combined-overhead convention. *)

val run : ?obs:Obs.t -> ?link:link_model -> config -> seed:int64 -> report
(** [run config ~seed] simulates the farm deterministically from [seed];
    [?link] (default {!Unlimited}) selects the contention model.
    Conservation: [total_done + pool_remaining = total_work] up to float
    tolerance (lost work returns to the pool).

    [?obs] (default {!Obs.disabled}) attaches observability without
    changing any result: a consuming sink receives the full event stream
    ([Run_started], per-workstation [Episode_started] /
    [Period_dispatched] / [Period_completed] / [Period_killed] /
    [Owner_returned] / [Episode_finished], [Pool_drained] when the pool
    empties, [Run_finished]) stamped with absolute simulation times, and
    a span recorder gets the [farm.run] root, one
    [farm.plan_workstation] span (attribute [ws]) around each
    workstation's [fresh_episode] call and one [farm.next_period] span
    around each closure call. {!Trace_report} folds such a trace back
    into this function's own report numbers. Killed periods charge no
    overhead in this accounting (the dispatch cost is only charged to
    completed periods), so their [Period_killed] events carry
    [overhead = 0].
    @raise Invalid_argument on nonpositive [c], [total_work], [max_time],
    presence means, an empty workstation list, or a [c] below the float
    spacing at [max_time] (a period that short could end at the instant
    it was dispatched, and its successor would see [elapsed = 0.]). *)
