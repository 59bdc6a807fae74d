(** Brute-force ground truth: direct numerical maximisation of expected
    work over period vectors.

    Knows nothing about the recurrence or the [t_0] bounds — it ascends
    [E(t_0, ..., t_{m−1}; p)] coordinate-wise for each candidate period
    count [m] and keeps the best. The agreement between this optimiser, the
    {!Exact} re-derivations, and the {!Guideline} pipeline is the central
    validation of the reproduction (experiments E1–E6). Exhaustive, so
    intended for the modest problem sizes of the paper's scenarios. *)

type t = {
  schedule : Schedule.t;
  expected_work : float;
  m : int;  (** Period count of the winning schedule. *)
  sweeps : int;  (** Total coordinate-ascent sweeps spent. *)
}

val optimal_schedule :
  ?obs:Obs.t ->
  ?pool:Domain_pool.t ->
  ?m_max:int ->
  ?patience:int ->
  ?tol:float ->
  Life_function.t -> c:float ->
  t
(** [optimal_schedule p ~c] searches period counts [m = 1, 2, ...]:
    for each [m] it seeds an equal split of the horizon and runs coordinate
    ascent (periods bounded in [(0, horizon]]; completion times beyond a
    bounded lifespan are harmless since [p] is 0 there). The [m]-scan stops
    after [patience] (default 3) consecutive counts without improvement, or
    at [m_max] (default: the Corollary 5.3 bound for concave [p], else 64).
    Requires [0 < c < horizon p].

    The returned schedule is in Proposition 2.1 productive normal form.

    [?pool] runs the search on a {!Domain_pool}: the four multi-start
    seeds of each count ascend concurrently, and consecutive counts are
    evaluated speculatively in blocks sized by the patience still
    remaining — a block the serial scan would provably also have
    evaluated in full. The winning schedule, [m] and [sweeps] are
    bit-identical to the serial search; only wall time changes. A
    one-domain pool (or no pool) takes the untouched serial path.

    [?obs] (default {!Obs.disabled}) records the search: a
    [Plan_computed] event (source ["optimizer"]); a span recorder sees
    per-count [optimizer.sweep] spans (serial) or per-block
    [optimizer.block] spans (parallel). The result is unaffected. *)

val expected_work_of_vector :
  Life_function.t -> c:float -> float array -> float
(** [expected_work_of_vector p ~c ts] evaluates eq. 2.1 directly on a raw
    period vector (no positivity validation; nonpositive entries contribute
    no work but still consume time). Exposed for property tests comparing
    optimisation objectives. *)
