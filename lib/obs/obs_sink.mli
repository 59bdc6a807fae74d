(** Pluggable consumers for the event stream.

    A sink is where {!Obs.emit} delivers {!Obs_event.t} values. [Null]
    consumes nothing and is indistinguishable from tracing being off —
    {!Obs.tracing} reports [false] for it, so instrumented code skips
    event construction entirely and the sink costs one branch. [Jsonl]
    writes one self-describing JSON object per line (the schema
    {!Obs_query.load} reads back); [Console] pretty-prints for humans;
    [Custom] forwards to arbitrary user code (in-memory collection,
    filtering, fan-out). *)

type t =
  | Null  (** Discard; equivalent to tracing disabled. *)
  | Jsonl of out_channel
      (** One {!Obs_event.to_json} line per event. The channel is owned
          by the caller (open, flush and close around the run). *)
  | Console of Format.formatter  (** {!Obs_event.pp}, one line per event. *)
  | Custom of (Obs_event.t -> unit)

val consumes : t -> bool
(** [false] only for [Null]: whether emitting to this sink does work. *)

val emit : t -> Obs_event.t -> unit

val tee : t list -> t
(** Fan one emit out to every sink in the list (in order). Sinks that
    consume nothing are dropped up front: [tee []] and [tee [Null]]
    are [Null] (so {!Obs.tracing} still reports [false]), and a
    single live sink is returned as itself rather than wrapped. Used
    by [csctl simulate --emit] to write the local JSONL trace and
    stream to a collector from one instrumentation pass. *)

val with_jsonl_file : ?meta:Obs_meta.t -> string -> (t -> 'a) -> 'a
(** [with_jsonl_file path k] opens [path] for writing, runs [k] with a
    [Jsonl] sink over it, and closes the channel on return or
    exception. When [meta] is given, its {!Obs_meta.to_json} line is
    written first, so the trace opens with its provenance header. *)
