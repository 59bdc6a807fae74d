(** Monte-Carlo estimation of a schedule's expected work — the empirical
    side of eq. 2.1, used by experiment E8 to validate the analytic
    expectation and by users whose life functions come from traces rather
    than formulas.

    {2 Parallel execution}

    Both entry points split their trial loop over a fixed {e chunk grid}
    of {!chunk_size} trials per chunk: chunk [k] draws from the [k]-th
    {!Prng.split_n} child stream and accumulates its own compensated
    partial sums, which are reduced in chunk-index order afterwards. The
    grid's geometry depends only on the trial count, so results are
    {e bit-identical} whether the chunks run inline (the default) or on a
    caller-supplied {!Domain_pool.t} ([?pool]) — see DESIGN.md §10.
    Observability merges the same way: each chunk records its events and
    spans into a private handle that is folded back in chunk order
    ({!Obs_fork}).

    {2 Cost of a trial}

    Both entry points tabulate each schedule once, with
    {!Episode.replay} (O(n) for [n] periods), and play every trial
    through that table with {!Episode.play}, traced or not. The table is
    read-only, so every chunk shares it. A trial then costs its reclaim
    draw, a scan of the schedule's period ends up to the reclaim time,
    and O(1) more: no completed period is summed again. Uninstrumented, a
    trial of {!estimate} allocates about 21 minor words whatever the
    schedule's length: at most 15 in {!Episode.play}, the rest for the
    boxed draw and {!Stats.summarize}'s boxed deviations. The outcomes
    equal {!Episode.run}'s bit for bit. *)

val chunk_size : int
(** Trials per chunk of the fixed grid (512). *)

type estimate = {
  trials : int;
  mean_work : float;
  ci95 : float * float;  (** Normal-approximation 95% confidence interval. *)
  mean_overhead : float;
  mean_lost : float;
  interrupted_fraction : float;
  analytic : float;  (** [Schedule.expected_work] for the same inputs. *)
}

val estimate :
  ?obs:Obs.t ->
  ?pool:Domain_pool.t ->
  ?trials:int ->
  Life_function.t -> c:float -> schedule:Schedule.t -> seed:int64 ->
  estimate
(** [estimate p ~c ~schedule ~seed] runs [trials] (default 20_000)
    independent episodes with reclaim times drawn from [p] and summarises
    the outcomes. Deterministic in [seed] — and in [seed] only: [?pool]
    changes wall time, never a bit of the result. Requires
    [trials >= 2].

    [?obs] (default {!Obs.disabled}) is forwarded to every
    {!Episode.play}, with the trial index as the episode ordinal [ep] (and
    [ws = 0]), bracketed by [Run_started] / [Run_finished] marker events;
    a span recorder sees an [mc.estimate] span over per-chunk [mc.chunk]
    children. Results are identical with and without [?obs]. *)

type policy_run = {
  policy_name : string;
  mean_work_per_episode : float;
  episodes : int;
}

val compare_policies :
  ?obs:Obs.t ->
  ?pool:Domain_pool.t ->
  ?trials:int ->
  Life_function.t -> c:float ->
  policies:(string * Schedule.t) list -> seed:int64 ->
  policy_run list
(** [compare_policies p ~c ~policies ~seed] runs every named schedule
    against the {e same} stream of sampled reclaim times (common random
    numbers, so policy differences are not drowned in sampling noise) and
    reports mean work per episode, sorted best-first. The reclaim stream
    is drawn serially up front; the policy × chunk grid then runs on
    [?pool] with the same bit-identical guarantee as {!estimate}.
    Requires [trials >= 1] and [policies <> []].

    [?obs] is forwarded to every {!Episode.play}; in the emitted events the
    [ws] field carries the {e policy index} (position in [policies]) and
    [ep] the trial index, so a trace can be cut per policy. A span
    recorder sees an [mc.compare] span over per-chunk [mc.policy]
    children. *)
