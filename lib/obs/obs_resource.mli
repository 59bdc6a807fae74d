(** Sampled GC / allocation observability for the bench harness.

    The paper's borrower must act on *observed* machine behavior; the
    first observable that matters on a real workstation is the runtime
    itself — allocation pressure, promotion rate, heap growth. This
    module turns [Gc.quick_stat] deltas into ordinary {!Obs_metrics}
    instruments of a caller's registry.

    Samples are taken where the caller chooses, never on a wall-clock
    timer: the e2e bench harness samples once per workload, which is
    where its [gc.*] and [peak_heap_mb] figures come from. Resource
    values never enter the event trace, so the [--jobs 1] ≡ [--jobs 2]
    trace-diff gate is unaffected by the (inherently
    domain-count-dependent) GC numbers.

    This file is the sole sanctioned call site of [Gc.stat] /
    [Gc.quick_stat] / [Gc.counters] (cslint rule R9): [Gc.stat] walks
    the major heap, and even [quick_stat] costs enough that sampling
    belongs at a few chosen points, not inside a hot loop.

    Series recorded (all under the [gc.] namespace):
    - counters [gc.samples], [gc.minor_collections],
      [gc.major_collections], [gc.compactions] — deltas since
      {!create};
    - gauges [gc.minor_words], [gc.promoted_words], [gc.major_words] —
      cumulative words allocated/promoted since {!create};
    - gauges [gc.heap_words], [gc.top_heap_words] — instantaneous
      major-heap size and high-water mark. *)

type t
(** A sampler bound to one registry. *)

val create : Obs_metrics.t -> t
(** [create m] resolves the [gc.*] instruments in [m] and takes the
    baseline [Gc.quick_stat]. *)

val sample : t -> unit
(** Take one [Gc.quick_stat] reading and record the deltas. *)

val samples : t -> int
(** Number of samples taken so far (the [gc.samples] counter). *)
