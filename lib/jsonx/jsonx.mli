(** A minimal, dependency-free JSON value type with a compact one-line
    printer and a strict parser.

    The observability layer ({!Obs_sink}'s [Jsonl] sink, the bench
    harness's [BENCH_T1.json]) must serialize without pulling an external
    JSON library into the runtime dependency set, and {!Trace_report} must
    parse those files back. This module is deliberately small: values,
    [to_string], [of_string], and a few accessors — not a general-purpose
    JSON toolkit.

    Floats are printed with the shortest [%g] precision (15–17 digits)
    that round-trips exactly through [float_of_string], so a value written
    by {!to_string} and re-read by {!of_string} is bit-identical; this is
    what lets a JSONL trace reproduce a simulation's accounting to float
    tolerance. Non-finite floats have no JSON representation and are
    printed as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line, no spaces) JSON text. Strings are escaped per
    RFC 8259; non-finite floats become [null]. A string's other bytes
    are copied as they are, so a value whose strings are valid UTF-8
    reads back through {!of_string} as itself (up to those [null]s);
    one with any other bytes reads back as an [Error]. *)

val of_string : string -> (t, string) result
(** [of_string s] parses exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error). Numbers follow the RFC 8259
    §6 grammar exactly, so [0123], [1.], [.5] and [1.e5] are errors.
    Numbers without [.], [e] or [E] that fit in an OCaml [int] parse as
    [Int], everything else as [Float] (an exponent past the float range
    reads as an infinity). A byte below 0x20 inside a string must be
    escaped. [\uXXXX] escapes (exactly four hex digits) are decoded to
    UTF-8; a surrogate pair folds into one code point, and an unpaired
    surrogate is an error. The whole input must be valid UTF-8 (RFC
    8259 §8.1): a stray byte such as 0xFF, a truncated or overlong
    sequence, or an encoded surrogate is an error. Never raises:
    malformed input is [Error]. *)

val shortest_g : float -> string
(** The shortest of [%.15g], [%.16g] and [%.17g] that [float_of_string]
    reads back as the same float: {!to_string}'s rule for non-integral
    floats, shared by other printers that must round-trip. *)

val member : string -> t -> t option
(** [member k j] is the value bound to key [k] when [j] is an [Obj]. *)

val get_string : t -> string option
val get_bool : t -> bool option

val get_int : t -> int option
(** Accepts [Float] values that are exactly integral. *)

val get_float : t -> float option
(** Accepts [Int] (JSON does not distinguish [5] from [5.0]). *)
