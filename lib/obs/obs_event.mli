(** The typed event vocabulary of the tracing layer.

    One simulation run — a {!Monte_carlo} estimate, a {!Farm} run, or a
    planner invocation — emits a stream of these events through an
    {!Obs_sink}. Times are in simulation units ([Plan_computed] carries
    wall seconds instead, since planning happens outside simulated time);
    [ws] identifies the workstation (for {!Monte_carlo.compare_policies}
    it carries the policy index) and [ep] the 0-based episode ordinal on
    that workstation.

    The JSONL encoding is schema-versioned and self-describing: every
    line is one object with ["v"] (= {!schema_version}) and ["type"]
    fields plus the payload, e.g.
    [{"v":1,"type":"period_completed","t":12.5,"ws":0,"ep":3,
      "period":10.0,"banked":9.0,"overhead":1.0}].
    {!of_json} rejects unknown types and missing fields rather than
    guessing, so {!Trace_report} aggregation can trust every record. *)

type t =
  | Run_started of { time : float; source : string; seed : int64 option }
      (** Opens a trace; [source] names the emitting harness
          ([monte_carlo], [farm], ...). *)
  | Plan_computed of {
      source : string;  (** [guideline] or [optimizer]. *)
      t0 : float;  (** Chosen initial period. *)
      periods : int;
      expected_work : float;
      elapsed : float;  (** Planning wall-time, seconds. *)
    }
  | Episode_started of { time : float; ws : int; ep : int }
  | Period_dispatched of {
      time : float;  (** When the [c]-long dispatch begins. *)
      ws : int;
      ep : int;
      period : float;  (** Full period length [t], including [c]. *)
      assigned : float;  (** Productive work shipped, [t ⊖ c] after pool clip. *)
    }
  | Period_completed of {
      time : float;
      ws : int;
      ep : int;
      period : float;
      banked : float;
      overhead : float;
    }
  | Period_killed of {
      time : float;
      ws : int;
      ep : int;
      lost : float;  (** Productive work in flight when the owner returned. *)
      overhead : float;
          (** Communication time charged to the killed period (0 in the
              farm's accounting, [min in_flight c] in the episode's). *)
    }
  | Owner_returned of { time : float; ws : int; ep : int }
  | Episode_finished of {
      time : float;
      ws : int;
      ep : int;
      work_done : float;
      interrupted : bool;  (** A period was in flight when the episode ended. *)
    }
  | Pool_drained of { time : float; remaining : float }
  | Run_finished of { time : float }

val schema_version : int
(** Currently [1]. Bumped on any incompatible change to the encoding. *)

val kind : t -> string
(** The constructor's JSON ["type"] tag ([period_completed], ...) — the
    vocabulary {!Obs_query.filter}'s [?kind] selects on. *)

val time : t -> float option
(** The event's simulated-time stamp; [None] for [Plan_computed], which
    happens outside simulated time. *)

val ids : t -> (int * int) option
(** [(ws, ep)] for episode-scoped events; [None] for run-level markers
    ([Run_started], [Plan_computed], [Pool_drained], [Run_finished]). *)

val to_json : t -> Jsonx.t

val of_json : Jsonx.t -> (t, string) result
(** Inverse of {!to_json}. Rejects unknown ["type"] values, wrong ["v"],
    and missing or ill-typed fields; a non-finite float counts as
    ill-typed, since {!to_json} never writes one. *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable rendering ([cstrace diff]'s format). *)
