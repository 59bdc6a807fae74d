(** Machine-readable benchmark run records: the schema behind
    [BENCH_T1.json] and the append-only [BENCH_HISTORY.jsonl]
    trajectory.

    A record stamps one timing-suite run with enough environment to make
    cross-run comparison honest — git SHA, OCaml version, hostname,
    sampling quota — plus the per-benchmark estimates (ns/call and the
    fit's r², which {!Bench_gate} uses to widen tolerances for noisy
    fits). Schema v2; v1 files (PR 1, no SHA/hostname) still load with
    ["unknown"] placeholders so the gate can diff across the boundary. *)

type entry = {
  ns_per_call : float;
  r_square : float;
  advisory : bool;
      (** The fit behind this estimate was not {!Bench_fit.reliable} —
          too few kept samples or worse-than-constant r². Consumers that
          divide through the fit quality ({!Bench_gate}) must treat the
          point as informational, never as a gating input. Serialized as an explicit ["advisory": true]
          field; absent means derived from [r_square] on load, so v1/v2
          files without the field still classify correctly. *)
}

type t = {
  schema : int;
  suite : string;
  ocaml : string;
  git_sha : string;
  hostname : string;
  quota_seconds : float;
  unix_time : float;
  results : (string * entry) list;  (** Sorted by benchmark name. *)
}

val schema_version : int
(** Currently [2]. *)

val make :
  ?suite:string ->
  ocaml:string ->
  git_sha:string ->
  hostname:string ->
  quota_seconds:float ->
  unix_time:float ->
  (string * entry) list ->
  t
(** Build a v2 record (suite defaults to ["T1"]); results are sorted. *)

val to_json : t -> Jsonx.t

val of_json : Jsonx.t -> (t, string) result
(** Accepts schema v1 (missing [git_sha]/[hostname] become ["unknown"])
    and v2; rejects anything else or ill-typed fields. *)

val load : string -> (t, string) result
(** Read and parse one record from a JSON file. *)

val save : string -> t -> unit
(** Write the record (one line + newline) to a file, replacing it. *)

val append_history : string -> t -> unit
(** Append the record as one JSONL line, creating the file if needed —
    the bench trajectory grows by one point per timing run. *)

val load_history : string -> (t list, string) result
(** All records of a JSONL history file, oldest first; blank lines are
    ignored and the error names the first malformed line. *)
