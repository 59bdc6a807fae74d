(* cstrace — trace analytics for the observability layer.

   Subcommands:
     cstrace report   trace.jsonl [--kind K] [--ws N] [--ep N]
                      [--since T] [--until T] [--episodes]
     cstrace diff     a.jsonl b.jsonl [--context N] [--force]
     cstrace flame    profile_trace.json -o profile.folded
     cstrace check    trace.jsonl --rules FILE [--rule R]... [--json]

   [report] filters and summarises one JSONL event trace; [diff]
   compares two runs event-by-event and pinpoints the first divergence
   (exit 1) — the semantic form of the DESIGN.md §10 determinism check;
   [flame] folds a Chrome span profile into flamegraph.pl/speedscope
   input; [check] evaluates health rules against the named values of
   the same fold that [report] prints (Trace_report), so the two never
   disagree on a number. Every subcommand reads a finished file: the
   --trace file of a run is its one record.

   Exit codes: 0 success (and "traces are identical" for diff), 1 data
   error or divergence, 2 usage error (including a refused
   different-seed diff). *)

open Cmdliner

let die_data msg =
  prerr_endline ("error: " ^ msg);
  exit 1

let load_trace path =
  match Obs_query.load path with Ok t -> t | Error msg -> die_data msg

let write_lines path lines =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines)
  with Sys_error msg -> die_data msg

let trace_pos ~docv ~idx =
  Arg.(
    required
    & pos idx (some string) None
    & info [] ~docv ~doc:"JSONL event trace file (written by --trace).")

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report_cmd =
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Keep only events of this kind (period_completed, \
             episode_finished, ...).")
  in
  let ws =
    Arg.(
      value
      & opt (some int) None
      & info [ "ws" ] ~docv:"N" ~doc:"Keep only events of workstation $(docv).")
  in
  let ep =
    Arg.(
      value
      & opt (some int) None
      & info [ "ep" ] ~docv:"N" ~doc:"Keep only events of episode $(docv).")
  in
  let since =
    Arg.(
      value
      & opt (some float) None
      & info [ "since" ] ~docv:"T"
          ~doc:"Keep only events at simulated time >= $(docv).")
  in
  let until =
    Arg.(
      value
      & opt (some float) None
      & info [ "until" ] ~docv:"T"
          ~doc:"Keep only events at simulated time <= $(docv).")
  in
  let episodes =
    Arg.(
      value & flag
      & info [ "episodes" ]
          ~doc:"Also print the per-episode timeline table.")
  in
  let run file kind ws ep since until episodes =
    let t = load_trace file in
    (match t.Obs_query.meta with
    | Some m ->
        (* The git sha varies build to build; keep the header line
           reproducible for the cram tests and leave the sha in the
           file. *)
        Format.printf "meta          : %a@." Obs.Meta.pp
          { m with Obs.Meta.git_sha = None }
    | None -> ());
    let events =
      Obs_query.filter ?kind ?ws ?ep ?since ?until t.Obs_query.events
    in
    Format.printf "%a" Trace_report.pp (Trace_report.of_events events);
    if episodes then
      Format.printf "per-episode timeline:@.%a" Obs_query.pp_episodes
        (Obs_query.episodes events)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Filter and summarise a JSONL event trace (totals, quantiles, \
          per-episode timelines).")
    Term.(
      const run $ trace_pos ~docv:"TRACE" ~idx:0 $ kind $ ws $ ep $ since
      $ until $ episodes)

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let diff_cmd =
  let context =
    Arg.(
      value & opt int 3
      & info [ "context" ] ~docv:"N"
          ~doc:"Shared events to show before the divergence point.")
  in
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Compare even when the traces record different seeds (normally \
             refused: different seeds are expected to diverge).")
  in
  let run left right context force =
    let a = load_trace left and b = load_trace right in
    let seed_of (t : Obs_query.trace) =
      Option.bind t.Obs_query.meta (fun m -> m.Obs.Meta.seed)
    in
    (match (seed_of a, seed_of b) with
    | Some sa, Some sb when (not (Int64.equal sa sb)) && not force ->
        prerr_endline
          (Printf.sprintf
             "error: traces were recorded with different seeds (%Ld vs %Ld); \
              a divergence is expected, not a determinism bug. Pass --force \
              to compare anyway."
             sa sb);
        exit 2
    | _ -> ());
    match Obs_query.diff ~context a.Obs_query.events b.Obs_query.events with
    | None ->
        Format.printf "traces are identical (%d events)@."
          (List.length a.Obs_query.events)
    | Some d ->
        Format.printf "%a" Obs_query.pp_divergence d;
        exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two runs event-by-event; exit 0 when identical, exit 1 \
          with the first divergence pinpointed otherwise."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Two same-seed runs must produce identical event streams for \
              any --jobs value (DESIGN.md \xc2\xa710). $(tname) checks that \
              contract semantically: provenance headers are not compared \
              (so a --jobs 1 and a --jobs 2 trace of the same run compare \
              equal), every field of every event is, and the first \
              differing event is printed with its surrounding context.";
         ])
    Term.(
      const run
      $ trace_pos ~docv:"LEFT" ~idx:0
      $ trace_pos ~docv:"RIGHT" ~idx:1
      $ context $ force)

(* ------------------------------------------------------------------ *)
(* flame                                                               *)

let flame_cmd =
  let file =
    Arg.(
      required
      & Arg.pos 0 (some string) None
      & info [] ~docv:"PROFILE"
          ~doc:"Chrome trace-event JSON written by $(b,csctl profile).")
  in
  let out =
    Arg.(
      value
      & opt string "profile.folded"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Where to write the folded stacks (feed to flamegraph.pl or \
             speedscope).")
  in
  let run file out =
    let text =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error msg -> die_data msg
    in
    let j =
      match Jsonx.of_string text with
      | Ok j -> j
      | Error msg -> die_data (file ^ ": " ^ msg)
    in
    let spans =
      match Obs_export.spans_of_chrome j with
      | Ok s -> s
      | Error msg -> die_data (file ^ ": " ^ msg)
    in
    let folded = Obs_export.folded_of_spans spans in
    let stacks =
      match Obs_export.validate_folded folded with
      | Ok n -> n
      | Error msg -> die_data ("internal: invalid folded output: " ^ msg)
    in
    write_lines out folded;
    Format.printf "wrote %s (%d stacks)@." out stacks
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Fold a Chrome span profile into flamegraph.pl / speedscope input \
          (self time per call path).")
    Term.(const run $ file $ out)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

(* [check] owes exits 0/1/2 to the health verdict, so its own failures
   (unreadable data, bad rules) use exit 3 instead of the usual 1. *)
let die_check msg =
  prerr_endline ("error: " ^ msg);
  exit 3

let gather_rules rules_file rule_flags =
  let from_file =
    match rules_file with
    | None -> []
    | Some path -> (
        let text =
          try In_channel.with_open_text path In_channel.input_all
          with Sys_error msg -> die_check msg
        in
        match Obs_health.parse text with
        | Ok rs -> rs
        | Error msg -> die_check (path ^ ": " ^ msg))
  in
  let from_flags =
    List.map
      (fun r ->
        match Obs_health.parse_rule r with
        | Ok rule -> rule
        | Error msg -> die_check (Printf.sprintf "--rule %S: %s" r msg))
      rule_flags
  in
  match from_file @ from_flags with
  | [] -> die_check "no rules given; pass --rules FILE and/or --rule RULE"
  | rules -> rules

let check_cmd =
  let rules_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:"Health rules file (one SEVERITY SELECTOR OP VALUE per line).")
  in
  let rule_flags =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:"Inline rule, e.g. $(b,\"critical trace.periods_killed <= 5\"); \
                repeatable.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the verdict report as one JSON object instead of text.")
  in
  let run file rules_file rule_flags json =
    let rules = gather_rules rules_file rule_flags in
    let t =
      match Obs_query.load file with Ok t -> t | Error msg -> die_check msg
    in
    (* A trace without events has nothing to judge: unusable input,
       not a vacuous pass. *)
    if t.Obs_query.events = [] then die_check (file ^ ": empty file");
    let values =
      Trace_report.values (Trace_report.of_events t.Obs_query.events)
    in
    let report = Obs_health.evaluate ~rules values in
    if json then print_endline (Jsonx.to_string (Obs_health.report_to_json report))
    else Format.printf "%a" Obs_health.pp_report report;
    exit (Obs_health.exit_code report)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Evaluate declarative health rules against the trace.* values \
          of a finished trace; exit 0 ok / 1 warn / 2 critical (3 on \
          unreadable input)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Rules come from a --rules file and/or repeated --rule flags. \
              A selector reads a count (trace.periods_killed), a \
              distribution's stat (trace.period_length.p99, .count, \
              .sum, .mean, .min, .max, .p50, .p95), or a distribution's \
              bare name as its mean. The values are the exact numbers \
              $(b,cstrace report) prints. A trailing ? makes a rule skip \
              silently when its value is absent, letting one rules file \
              serve traces that carry different values.";
         ])
    Term.(
      const run $ trace_pos ~docv:"TRACE" ~idx:0 $ rules_file $ rule_flags
      $ json)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "trace analytics for cycle-stealing runs: summarise, diff, flamegraph \
     and health-check the observability layer's artifacts"
  in
  let info = Cmd.info "cstrace" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ report_cmd; diff_cmd; flame_cmd; check_cmd ]))
