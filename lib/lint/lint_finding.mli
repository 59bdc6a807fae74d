(** A single rule violation at a source location. *)

type t = {
  rule : string;
      (** "R1" .. "R9", "R14", "M1" for a stale suppression, or "E1" for
          a malformed one. *)
  file : string;  (** Path as given to the linter. *)
  line : int;  (** 1-based line of the offending node. *)
  col : int;  (** 0-based column, matching compiler convention. *)
  message : string;  (** Human-readable description with remedy. *)
}

val compare : t -> t -> int
(** Order by file, then line, then column, then rule — the order findings
    are reported in, so output is deterministic. *)

val to_human : t -> string
(** ["file:line:col: RULE message"] — one finding per line. *)

val to_json : t -> Jsonx.t
(** Object with [rule], [file], [line], [col], [message] fields. *)
