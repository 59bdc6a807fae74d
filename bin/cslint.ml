(* cslint: static analyzer enforcing the repo's numerical-correctness and
   determinism invariants (DESIGN.md §8). Exit codes: 0 clean,
   1 findings, 2 operational error (unreadable or unparsable source). *)

let usage = "usage: cslint [--json] [--rules] [PATH ...]"
let json = ref false
let list_rules = ref false
let anon = ref []

let spec =
  [
    ("--json", Arg.Set json, " machine-readable output (one JSON object)");
    ("--rules", Arg.Set list_rules, " describe the rule set and exit");
  ]

let default_paths () =
  List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples" ]

let () =
  Arg.parse (Arg.align spec) (fun p -> anon := p :: !anon) usage;
  if !list_rules then begin
    List.iter
      (fun (m : Lint_rules.meta) ->
        Printf.printf "%s  %s\n      remedy: %s\n" m.id m.title m.remedy)
      Lint_rules.all_meta;
    exit 0
  end;
  let paths = match List.rev !anon with [] -> default_paths () | ps -> ps in
  let result = Lint_engine.run paths in
  let findings = result.Lint_engine.all_findings in
  if !json then
    print_endline
      (Jsonx.to_string
         (Jsonx.Obj
            [
              ("findings", Jsonx.List (List.map Lint_finding.to_json findings));
              ("total", Jsonx.Int (List.length findings));
              ("suppressed", Jsonx.Int result.total_suppressed);
              ( "errors",
                Jsonx.List (List.map (fun e -> Jsonx.String e) result.errors)
              );
            ]))
  else begin
    List.iter (fun f -> print_endline (Lint_finding.to_human f)) findings;
    List.iter (fun e -> prerr_endline ("cslint: error: " ^ e)) result.errors;
    if findings = [] && result.errors = [] then
      Printf.printf "cslint: clean (%d suppressed)\n" result.total_suppressed
    else
      Printf.printf "cslint: %d finding(s), %d suppressed, %d error(s)\n"
        (List.length findings) result.total_suppressed
        (List.length result.errors)
  end;
  if result.errors <> [] then exit 2;
  if findings <> [] then exit 1
