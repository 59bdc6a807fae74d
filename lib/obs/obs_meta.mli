(** The provenance header stamped on JSONL event traces.

    A trace is a scientific artifact; without knowing which code, seed
    and scenario produced it, two traces cannot be meaningfully compared.
    The first line of every trace written through
    {!Obs_sink.with_jsonl_file}'s [?meta] argument is one self-describing
    JSON object — [{"v":1,"type":"meta","schema":2,"git_sha":"...",
    "seed":42,"jobs":1,"scenario":"simulate ..."}] — that the trace
    loader ({!Obs_query.load}) validates: a malformed
    header or one written under a different event schema version is a
    load error, not a silent skip. [cstrace diff] additionally refuses to
    compare traces whose recorded seeds differ (unless forced), because a
    divergence between different-seed runs is expected, not a bug. *)

type t = {
  schema : int;  (** {!Obs_event.schema_version} of the writing process. *)
  git_sha : string option;  (** Short commit hash, when a repo was visible. *)
  seed : int64 option;  (** PRNG seed of the run, when it had one. *)
  jobs : int option;  (** [--jobs] domain count; must never change results. *)
  scenario : string option;  (** Free-form description of the invocation. *)
}

val meta_version : int
(** Version of the header object itself (currently [1]); independent of
    the event schema it records in [schema]. *)

val make :
  ?git_sha:string ->
  ?seed:int64 ->
  ?jobs:int ->
  ?scenario:string ->
  unit ->
  t
(** Build a header for the current process: [schema] is this build's
    {!Obs_event.schema_version} and [git_sha] defaults to
    {!capture_git_sha}. *)

val capture_git_sha : unit -> string option
(** [git rev-parse --short HEAD] of the working directory, or [None]
    when there is no repository (or no [git]) to ask. *)

val to_json : t -> Jsonx.t

val of_json : Jsonx.t -> (t, string) result
(** Inverse of {!to_json}. Rejects wrong ["v"], missing ["schema"], and
    a ["schema"] other than this reader's {!Obs_event.schema_version};
    ignores keys it does not know. *)

val is_meta_json : Jsonx.t -> bool
(** Whether a parsed JSONL line claims to be a meta header
    ([.type = "meta"]) — the loaders' dispatch test, applied before the
    stricter {!of_json}. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: schema, scenario, seed, jobs, git sha (present
    fields only). *)
