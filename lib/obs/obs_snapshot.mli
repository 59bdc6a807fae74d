(** A ring buffer of periodic metric snapshots, for plotting how a run's
    metrics evolved over trials.

    A Monte-Carlo run's final registry tells you where it ended, not how
    it got there. A snapshot ring is attached to a registry and ticked at
    the serial chunk-gather boundary with the number of trials merged so
    far; every [every] trials it freezes the registry
    ({!Obs_metrics.snapshot}) into a bounded ring, oldest entries
    evicted first. Because ticks happen at chunk granularity in
    chunk-index order, the captured sequence is bit-identical for any
    [--jobs] value — the same determinism contract as the metrics
    themselves (DESIGN.md §10).

    [cstrace timeline] reads the JSONL form back and plots one metric's
    trajectory. *)

type t

type entry = { at : int; metrics : Obs_metrics.snapshot }
(** One capture: the registry frozen after [at] units of progress
    (trials, for the Monte-Carlo harness). *)

val default_capacity : int
(** [512]: the ring bound {!create} uses when no [capacity] is given. *)

val create : ?capacity:int -> every:int -> Obs_metrics.t -> t
(** [create ~every registry] snapshots [registry] every [every] progress
    units, keeping the most recent [capacity] (default
    {!default_capacity}) captures. Requires [every > 0] and
    [capacity > 0]. *)

val tick : t -> at:int -> unit
(** [tick t ~at] captures iff progress [at] has reached the next
    [every]-multiple mark. Progress that jumps several marks in one tick
    (chunked execution) captures once, then re-arms past [at] — so the
    effective spacing rounds up to the caller's tick granularity. *)

val capture : t -> at:int -> unit
(** Unconditional capture (used for the final state of a run, so the
    last entry always reflects completion). Does not re-arm {!tick}. *)

val entries : t -> entry list
(** Retained captures, oldest first. *)

val captured : t -> int
(** Total captures ever made, including evicted ones. *)

val dropped : t -> int
(** Captures evicted by the ring bound: [max 0 (captured - capacity)]. *)

val last_at : t -> int option
(** The [at] of the most recent capture, if any. *)

val entry_to_json : entry -> Jsonx.t
(** [{"v":1,"type":"snapshot","at":N,"metrics":{...}}] — one JSONL
    line. *)

val entry_of_json : Jsonx.t -> (entry, string) result

val write_jsonl : ?meta:Obs_meta.t -> t -> out_channel -> unit
(** All retained entries, oldest first, one JSON object per line. When
    [meta] is given the file opens with its {!Obs_meta.to_json}
    provenance header, and — if the ring has wrapped, i.e. the retained
    window is a shard whose first entry is not the run's first capture —
    the header is re-emitted at the rotation boundary, so splitting the
    file there still yields self-describing shards: any loader of a
    shard still sees its provenance. *)

val load : string -> (entry list, string) result
(** Read a file written by {!write_jsonl}. Blank lines are skipped;
    provenance headers are validated and may appear anywhere (rotated
    shards re-emit them mid-file); malformed lines are errors with
    [file:line] positions. *)

val load_with_meta : string -> (Obs_meta.t option * entry list, string) result
(** {!load} plus the first provenance header, when the file has one. *)
