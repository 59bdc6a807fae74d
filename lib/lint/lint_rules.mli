(** The cslint rule set: syntactic checks over the Parsetree.

    Each rule enforces one of the repository's numerical-correctness or
    determinism invariants (see DESIGN.md §8). The checks are purely
    syntactic — the linter runs on unparsed source without type
    information — so they are scoped to the patterns that matter:
    comparisons against float literals or float-arithmetic expressions,
    the [x := !x +. e] accumulation idiom, the primitives that reach
    ambient state (clock, [Random], I/O, GC probes, [Domain.spawn]), and
    toplevel allocations of mutable containers. *)

type scope = {
  file : string;  (** Path as reported in findings. *)
  in_lib : bool;  (** Under [lib/]: R2, R4 and R14 apply. *)
  in_bench : bool;  (** Under [bench/]: R2 applies. *)
  in_parallel : bool;  (** Under [lib/parallel/]: exempt from R7. *)
  in_obs : bool;
      (** Under [lib/obs/]: may name [Obs_clock], which R8 fences out of
          the rest of [lib/]. *)
  is_clock : bool;  (** [lib/obs/obs_clock.ml] itself: exempt from R8. *)
  is_resource : bool;
      (** [lib/obs/obs_resource.ml] itself: exempt from R9. *)
}

type meta = { id : string; title : string; remedy : string }

val all_meta : meta list
(** One entry per rule, in id order (R1–R9, R14, then the M-series
    meta-rule); used by [cslint --rules] and kept in sync with
    DESIGN.md §8. *)

type raw = {
  r_rule : string;
  r_loc : Location.t;
  r_msg : string;
  r_start : int;  (** Start character offset of the offending node. *)
  r_end : int;  (** End character offset of the offending node. *)
}

type allow_span = {
  a_rule : string;
  a_loc : Location.t;
      (** The attribute's own location — where an M1 unused-suppression
          report points. *)
  a_start : int;
  a_end : int;
}
(** A [\[@lint.allow "Rn"\]] attribute: findings for [a_rule] whose span
    falls inside [a_start, a_end] are suppressed. *)

val check_structure : scope -> Parsetree.structure -> raw list * allow_span list
(** Walk one implementation and return its raw findings (unordered)
    together with the suppression spans collected from [@lint.allow]
    attributes (including file-wide [@@@lint.allow]). *)

val check_signature : scope -> Parsetree.signature -> raw list * allow_span list
(** The same walk over an interface: R3 on module aliases and opens,
    R6 and friends inside attribute payloads, and [@lint.allow] span
    collection. *)
