(* cslint: static analyzer enforcing the repo's numerical-correctness and
   determinism invariants (DESIGN.md §8 and §13). Exit codes: 0 clean,
   1 findings, 2 operational error (unparsable source, bad manifest). *)

let usage =
  "usage: cslint [effects] [--deep] [--json]\n\
  \              [--effects-manifest FILE] [--write-effects]\n\
  \              [--allow-unused-allows] [--rules] [PATH ...]"

let json = ref false
let list_rules = ref false
let deep = ref false
let manifest_path = ref ".cseffects"
let write_effects = ref false
let allow_unused = ref false
let anon = ref []

let spec =
  [
    ("--json", Arg.Set json, " machine-readable output (one JSON object)");
    ( "--deep",
      Arg.Set deep,
      " run the interprocedural effect pass (R10, R11, R12)" );
    ( "--effects-manifest",
      Arg.Set_string manifest_path,
      "FILE effect-signature manifest checked by R12 (default .cseffects)" );
    ( "--write-effects",
      Arg.Set write_effects,
      " rewrite the effects manifest from the inferred signatures, then exit" );
    ( "--allow-unused-allows",
      Arg.Set allow_unused,
      " report unused [@lint.allow] (M1) as warnings, not findings" );
    ("--rules", Arg.Set list_rules, " describe the rule set and exit");
  ]

let default_paths () =
  List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples" ]

(* "lib/sched" selects lib/sched/guideline.ml but not lib/sched_old/x. *)
let selects filters path =
  filters = []
  || List.exists
       (fun f ->
         let f =
           if String.length f > 0 && f.[String.length f - 1] = '/' then
             String.sub f 0 (String.length f - 1)
           else f
         in
         String.equal f path || String.starts_with ~prefix:(f ^ "/") path)
       filters

let () =
  Arg.parse (Arg.align spec) (fun p -> anon := p :: !anon) usage;
  if !list_rules then begin
    List.iter
      (fun (m : Lint_rules.meta) ->
        Printf.printf "%s  %s\n      remedy: %s\n" m.id m.title m.remedy)
      Lint_rules.all_meta;
    exit 0
  end;
  let effects_mode, args =
    match List.rev !anon with
    | "effects" :: rest -> (true, rest)
    | other -> (false, other)
  in
  let deep = !deep || !write_effects || effects_mode in
  let paths =
    if effects_mode then default_paths ()
    else match args with [] -> default_paths () | ps -> ps
  in
  let options =
    {
      Lint_engine.deep;
      manifest_path =
        (if deep && not (!write_effects || effects_mode) then
           Some !manifest_path
         else None);
      warn_unused_allows = !allow_unused;
    }
  in
  let result = Lint_engine.run ~options paths in
  if effects_mode then begin
    (* Display command: print the inferred table for the requested
       subtrees (analysis always covers the standard roots so
       cross-module resolution stays whole-program). *)
    List.iter
      (fun (s : Lint_effects.module_sig) ->
        if selects args s.Lint_effects.ms_path then begin
          Printf.printf "%s (%s): %s\n" s.Lint_effects.ms_module
            s.Lint_effects.ms_path
            (Lint_effect.set_to_string s.Lint_effects.ms_effects);
          List.iter
            (fun (b, e) ->
              Printf.printf "  %s: %s\n" b (Lint_effect.set_to_string e))
            s.Lint_effects.ms_bindings
        end)
      result.Lint_engine.effect_signatures;
    List.iter
      (fun e -> prerr_endline ("cslint: error: " ^ e))
      result.Lint_engine.errors;
    exit (if result.Lint_engine.errors = [] then 0 else 2)
  end;
  if !write_effects then begin
    let sigs = Lint_deep.lib_signatures result.Lint_engine.effect_signatures in
    Lint_manifest.save !manifest_path sigs;
    Printf.printf "cslint: wrote effect signatures for %d module(s) to %s\n"
      (List.length sigs) !manifest_path;
    List.iter
      (fun e -> prerr_endline ("cslint: error: " ^ e))
      result.Lint_engine.errors;
    exit (if result.Lint_engine.errors = [] then 0 else 2)
  end;
  let findings = result.Lint_engine.all_findings in
  let warnings = result.Lint_engine.warnings in
  if !json then
    print_endline
      (Jsonx.to_string
         (Jsonx.Obj
            [
              ("findings", Jsonx.List (List.map Lint_finding.to_json findings));
              ("warnings", Jsonx.List (List.map Lint_finding.to_json warnings));
              ("total", Jsonx.Int (List.length findings));
              ("suppressed", Jsonx.Int result.total_suppressed);
              ( "errors",
                Jsonx.List (List.map (fun e -> Jsonx.String e) result.errors)
              );
            ]))
  else begin
    List.iter (fun f -> print_endline (Lint_finding.to_human f)) findings;
    List.iter
      (fun f -> print_endline ("warning: " ^ Lint_finding.to_human f))
      warnings;
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
