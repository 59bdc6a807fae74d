(** The cslint driver: parse sources with compiler-libs, run the rule
    set, honour [@lint.allow] suppressions, report the stale ones (M1),
    and enforce the .mli pairing rule over a file set.

    Everything here is pure over its inputs apart from {!lint_file},
    {!collect_files} and {!run}, which read the filesystem — tests
    exercise the rules through {!lint_source} with inline fixtures. *)

type report = { findings : Lint_finding.t list; suppressed : int }

val scope_of_path : string -> Lint_rules.scope
(** Classify a path: under [lib/], under [bench/], under [lib/parallel/],
    under [lib/obs/], or one of the two modules a primitive fence exempts
    ([obs_clock] from R8, [obs_resource] from R9; either side of the
    pair). Leading "./" and backslash separators are normalized. *)

val lint_source : path:string -> string -> (report, string) result
(** [lint_source ~path content] lints one compilation unit held in
    memory — an implementation, or an interface when [path] ends in
    [.mli] (R3 and R4 on aliases/opens, attribute payloads, suppression
    spans). [path] determines rule scoping and appears in findings.
    Findings are sorted and include M1 reports for [@lint.allow]
    attributes that suppressed nothing; [suppressed] counts findings
    silenced by [@lint.allow]. Errors are unparsable source. *)

val lint_file : string -> (report, string) result
(** {!lint_source} over a file's contents. *)

val missing_mli_findings : string list -> Lint_finding.t list
(** Rule R5 over a file set, both directions: one finding per
    [lib/**/*.ml] with no matching [.mli] in the same set, and one per
    orphan [lib/**/*.mli] whose implementation is gone. *)

val collect_files : string list -> string list * string list
(** Walk files and directories (skipping [_build] and dotted entries) and
    return the sorted [.ml]/[.mli] paths beneath them, and one error per
    path that does not exist ([no_such_dir: No such file or
    directory]), so that a mistyped path fails instead of linting
    nothing. *)

type result = {
  all_findings : Lint_finding.t list;  (** Sorted, post-suppression. *)
  total_suppressed : int;
  errors : string list;
      (** Paths that do not exist, then unreadable or unparsable
          files. *)
}

val run : string list -> result
(** {!lint_file} over {!collect_files}, plus the R5 pairing check over
    the same file set. *)
