(** A monotonic (non-decreasing) wall-clock for span timing.

    The container's toolchain carries no monotonic-clock binding, so this
    clock is built on [Unix.gettimeofday] with a high-water-mark clamp: a
    backwards step of the system clock freezes the reading rather than
    producing a negative span. Resolution is therefore microseconds, and
    readings are comparable only within one process — exactly what
    {!Obs_span} needs and nothing more. Trace events carry no wall
    time, and lint R8 keeps this module out of [lib/] outside
    [lib/obs], so no library answer can read the clock; the bench
    harness times its ops with it. *)

val now : unit -> float
(** Seconds since the epoch, clamped to be non-decreasing across calls
    within this process. *)

val elapsed_since : float -> float
(** [elapsed_since t0] is [max 0 (now () - t0)]. *)
