(* The linter reads its sources and walks directories: I/O is its job. *)
[@@@lint.allow "R4"]

type report = { findings : Lint_finding.t list; suppressed : int }

let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.concat "/" (String.split_on_char '\\' path)

(* [dir] counts when it appears as a non-final path segment, so
   "lib/sched/exact.ml" and "repo/lib/x.ml" are under "lib" but
   "lib_old/x.ml" is not. *)
let under dir path =
  let rec go = function
    | [] | [ _ ] -> false
    | seg :: rest -> String.equal seg dir || go rest
  in
  go (String.split_on_char '/' (normalize path))

let ends_with_any suffixes n =
  List.exists (fun s -> String.ends_with ~suffix:s n) suffixes

let scope_of_path path : Lint_rules.scope =
  let n = normalize path in
  {
    file = path;
    in_lib = under "lib" n;
    in_bench = under "bench" n;
    in_parallel = under "parallel" n;
    in_obs = under "obs" n;
    is_clock = ends_with_any [ "obs/obs_clock.ml"; "obs/obs_clock.mli" ] n;
    is_resource =
      ends_with_any [ "obs/obs_resource.ml"; "obs/obs_resource.mli" ] n;
  }

let finding_of_raw file (r : Lint_rules.raw) : Lint_finding.t =
  let p = r.r_loc.Location.loc_start in
  {
    rule = r.r_rule;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message = r.r_msg;
  }

let check_source ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  let fail exn =
    let detail =
      match Location.error_of_exn exn with
      | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    Error (Printf.sprintf "%s: parse error: %s" path (String.trim detail))
  in
  let scope = scope_of_path path in
  if Filename.check_suffix path ".mli" then
    match Parse.interface lexbuf with
    | exception exn -> fail exn
    | sg -> Ok (Lint_rules.check_signature scope sg)
  else
    match Parse.implementation lexbuf with
    | exception exn -> fail exn
    | str -> Ok (Lint_rules.check_structure scope str)

(* Match raws against allow spans; every matching allow is marked used
   so the M1 pass can report the rest as stale. *)
let apply_allows allows (used : bool array) raws =
  let kept = ref [] in
  let dropped = ref 0 in
  List.iter
    (fun (r : Lint_rules.raw) ->
      let hit = ref false in
      List.iteri
        (fun i (a : Lint_rules.allow_span) ->
          if
            String.equal a.a_rule r.r_rule
            && a.a_start <= r.r_start && r.r_end <= a.a_end
          then begin
            hit := true;
            used.(i) <- true
          end)
        allows;
      if !hit then incr dropped else kept := r :: !kept)
    raws;
  (List.rev !kept, !dropped)

let unused_allow_findings path allows (used : bool array) =
  let out = ref [] in
  List.iteri
    (fun i (a : Lint_rules.allow_span) ->
      if not used.(i) then
        let p = a.a_loc.Location.loc_start in
        out :=
          {
            Lint_finding.rule = "M1";
            file = path;
            line = p.Lexing.pos_lnum;
            col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
            message =
              Printf.sprintf
                "unused [@lint.allow %S]: no %s finding falls inside its \
                 span; delete the stale suppression"
                a.a_rule a.a_rule;
          }
          :: !out)
    allows;
  List.rev !out

let lint_source ~path content =
  match check_source ~path content with
  | Error _ as e -> e
  | Ok (raws, allows) ->
      let used = Array.make (List.length allows) false in
      let kept, dropped = apply_allows allows used raws in
      let findings =
        List.map (finding_of_raw path) kept
        @ unused_allow_findings path allows used
      in
      Ok
        {
          findings = List.sort Lint_finding.compare findings;
          suppressed = dropped;
        }

let lint_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content -> lint_source ~path content

(* R5, both directions: a lib implementation without its interface leaks
   representation; a lib interface without its implementation is a stale
   contract nothing satisfies. *)
let missing_mli_findings files =
  let set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace set (normalize f) ()) files;
  files
  |> List.filter_map (fun f ->
         let n = normalize f in
         if not (scope_of_path n).in_lib then None
         else if
           Filename.check_suffix n ".ml" && not (Hashtbl.mem set (n ^ "i"))
         then
           Some
             {
               Lint_finding.rule = "R5";
               file = f;
               line = 1;
               col = 0;
               message =
                 "missing interface: every lib/**/*.ml needs a matching .mli";
             }
         else if
           Filename.check_suffix n ".mli"
           && not (Hashtbl.mem set (Filename.chop_suffix n "i"))
         then
           Some
             {
               Lint_finding.rule = "R5";
               file = f;
               line = 1;
               col = 0;
               message =
                 "orphan interface: no matching .ml; the implementation was \
                  removed or renamed without its contract";
             }
         else None)
  |> List.sort Lint_finding.compare

let collect_files paths =
  let out = ref [] and missing = ref [] in
  let rec walk p =
    match Sys.is_directory p with
    | exception Sys_error e -> missing := e :: !missing
    | true ->
        Sys.readdir p |> Array.to_list |> List.sort String.compare
        |> List.iter (fun entry ->
               if not (String.starts_with ~prefix:"." entry || entry = "_build")
               then walk (Filename.concat p entry))
    | false ->
        if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
        then out := p :: !out
  in
  List.iter walk paths;
  (List.sort_uniq String.compare (List.map normalize !out), List.rev !missing)

type result = {
  all_findings : Lint_finding.t list;
  total_suppressed : int;
  errors : string list;
}

let run paths =
  let files, missing = collect_files paths in
  let reports, errors =
    List.partition_map
      (fun f ->
        match lint_file f with
        | Ok r -> Either.Left r
        | Error e -> Either.Right e)
      files
  in
  {
    all_findings =
      List.sort Lint_finding.compare
        (missing_mli_findings files
        @ List.concat_map (fun (r : report) -> r.findings) reports);
    total_suppressed =
      List.fold_left (fun n (r : report) -> n + r.suppressed) 0 reports;
    errors = missing @ errors;
  }
