(** A zero-dependency metrics registry: named counters and gauges.

    The bench harness's {!Obs_resource} sampler records GC readings into
    one, and the e2e harness reads them back once per workload. A run's
    simulated counts and distributions are not kept here: they live in
    its trace, and {!Trace_report} folds them back. Callers hold direct
    references to their instruments (one registry lookup at setup, then
    a field update per observation). *)

type t
(** A registry. Instruments are created on first use of a name; a name
    denotes one kind of instrument for the registry's lifetime. *)

type counter
type gauge

val create : unit -> t
(** [create ()] is an empty registry. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** Find-or-create. @raise Invalid_argument if [name] exists as another
    instrument kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float
(** Last value set; [nan] before the first {!set}. *)
