(* cstrace — trace analytics for the observability layer.

   Subcommands:
     cstrace report   trace.jsonl [--kind K] [--ws N] [--ep N]
                      [--since T] [--until T] [--episodes]
     cstrace diff     a.jsonl b.jsonl [--context N] [--force]
     cstrace flame    profile_trace.json -o profile.folded
     cstrace prom     trace.jsonl [-o FILE]
     cstrace timeline snapshots.jsonl --metric NAME
     cstrace check    DATA --rules FILE [--rule R]... [--json]
     cstrace fetch    ADDR [PATH] [--validate-prom]
     cstrace collect  --listen ADDR [--http ADDR] [--once] [--out DIR]

   [report] filters and summarises one JSONL event trace; [diff]
   compares two runs event-by-event and pinpoints the first divergence
   (exit 1) — the semantic form of the DESIGN.md §10 determinism check;
   [flame] folds a Chrome span profile into flamegraph.pl/speedscope
   input; [prom] reconstructs deterministic trace.* metrics from the
   events and renders Prometheus text exposition; [timeline] plots one
   metric's trajectory from a csctl simulate --snapshots file; [check]
   evaluates health rules against a finished trace or snapshot ring;
   [collect] is the one live path, receiving csctl simulate --emit
   streams and serving /metrics and /health with --http; [fetch] is
   the matching one-shot scrape client.

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
    (match t.Obs_query.truncated with
    | Some n ->
        Format.printf
          "truncated     : stream ended without BYE after %d event(s)@." n
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
    List.iter
      (fun (name, (t : Obs_query.trace)) ->
        match t.Obs_query.truncated with
        | Some n ->
            Format.eprintf
              "note: %s is truncated (%d event(s) before the producer \
               vanished); a divergence may just be the missing tail@."
              name n
        | None -> ())
      [ (left, a); (right, b) ];
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
              contract semantically: provenance headers and wall-time \
              fields (planning elapsed seconds) are not compared (so a \
              --jobs 1 and a --jobs 2 trace of the same run compare \
              equal), and the first differing event is printed with its \
              surrounding context.";
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
(* prom                                                                *)

let prom_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of standard output.")
  in
  let namespace =
    Arg.(
      value & opt string "cs"
      & info [ "namespace" ] ~docv:"NS" ~doc:"Metric name prefix.")
  in
  let run file out namespace =
    let t = load_trace file in
    let reg = Obs_query.metrics_of_events t.Obs_query.events in
    let lines = Obs_export.prometheus ~namespace reg in
    let samples =
      match Obs_export.validate_prometheus lines with
      | Ok n -> n
      | Error msg -> die_data ("internal: invalid exposition: " ^ msg)
    in
    match out with
    | None -> List.iter print_endline lines
    | Some path ->
        write_lines path lines;
        Format.printf "wrote %d sample(s) to %s@." samples path
  in
  Cmd.v
    (Cmd.info "prom"
       ~doc:
         "Reconstruct deterministic trace.* metrics from an event trace \
          and render Prometheus text exposition.")
    Term.(const run $ trace_pos ~docv:"TRACE" ~idx:0 $ out $ namespace)

(* ------------------------------------------------------------------ *)
(* timeline                                                            *)

let timeline_cmd =
  let file =
    Arg.(
      required
      & Arg.pos 0 (some string) None
      & info [] ~docv:"SNAPSHOTS"
          ~doc:"Snapshot JSONL written by $(b,csctl simulate --snapshots).")
  in
  let metric =
    Arg.(
      required
      & opt (some string) None
      & info [ "metric" ] ~docv:"NAME"
          ~doc:
            "Metric to plot: a counter (its count), a gauge (its value) or \
             a histogram (its mean).")
  in
  let width = 40 in
  let run file metric =
    let entries =
      match Obs_snapshot.load file with
      | Ok es -> es
      | Error msg -> die_data msg
    in
    if entries = [] then die_data (file ^ ": no snapshots");
    let value (s : Obs.Metrics.snapshot) =
      match List.assoc_opt metric s.Obs.Metrics.snap_counters with
      | Some c -> Some (float_of_int c)
      | None -> (
          match List.assoc_opt metric s.Obs.Metrics.snap_gauges with
          | Some g -> Some g
          | None ->
              Option.map
                (fun (h : Obs.Metrics.hist_stats) -> h.Obs.Metrics.hs_mean)
                (List.assoc_opt metric s.Obs.Metrics.snap_histograms))
    in
    let points =
      List.map
        (fun (e : Obs_snapshot.entry) ->
          match value e.Obs_snapshot.metrics with
          | Some v -> (e.Obs_snapshot.at, v)
          | None ->
              let names (s : Obs.Metrics.snapshot) =
                List.map fst s.Obs.Metrics.snap_counters
                @ List.map fst s.Obs.Metrics.snap_gauges
                @ List.map fst s.Obs.Metrics.snap_histograms
              in
              die_data
                (Printf.sprintf "metric %S not in snapshots (have: %s)" metric
                   (String.concat ", " (names e.Obs_snapshot.metrics))))
        entries
    in
    let finite = List.filter (fun (_, v) -> Float.is_finite v) points in
    let vmax =
      List.fold_left (fun m (_, v) -> Float.max m v) 0.0 finite
    in
    Format.printf "%s@." metric;
    List.iter
      (fun (at, v) ->
        let bar =
          if not (Float.is_finite v) then "?"
          else if vmax <= 0.0 then ""
          else
            String.make
              (Stdlib.max 0
                 (int_of_float
                    (Float.round (float_of_int width *. v /. vmax))))
              '#'
        in
        Format.printf "%10d | %-*s %g@." at width bar v)
      points
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Plot one metric's trajectory over a run from a snapshot JSONL \
          file (text bars).")
    Term.(const run $ file $ metric)

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

(* A snapshot-ring file is the one whose first data line is
   {"type":"snapshot",...}; an event trace's is an event object. Both
   may open with (and, for rotated shards, re-emit) provenance
   headers, which say nothing about the payload kind — skip them. *)
let data_is_snapshot_ring path =
  try
    In_channel.with_open_text path (fun ic ->
        let rec next () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.trim l = "" -> next ()
          | Some l -> (
              match Jsonx.of_string l with
              | Error msg -> die_check (path ^ ": " ^ msg)
              | Ok j -> (
                  match
                    Option.bind (Jsonx.member "type" j) Jsonx.get_string
                  with
                  | Some "meta" -> next ()
                  | t -> Some (t = Some "snapshot")))
        in
        match next () with
        | Some is_ring -> is_ring
        | None -> die_check (path ^ ": empty file"))
  with Sys_error msg -> die_check msg

let load_check_entries path =
  if data_is_snapshot_ring path then
    match Obs_snapshot.load path with
    | Error msg -> die_check msg
    | Ok entries ->
        List.map
          (fun (e : Obs_snapshot.entry) ->
            (Some e.Obs_snapshot.at, e.Obs_snapshot.metrics))
          entries
  else
    match Obs_query.load path with
    | Error msg -> die_check msg
    | Ok t ->
        let reg = Obs_query.metrics_of_events t.Obs_query.events in
        [ (None, Obs.Metrics.snapshot reg) ]

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
  let data =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DATA"
          ~doc:
            "What to evaluate: a JSONL event trace (rules see the \
             reconstructed trace.* metrics) or a snapshot-ring JSONL \
             (rules see every captured frame).")
  in
  let run data rules_file rule_flags json =
    let rules = gather_rules rules_file rule_flags in
    let entries = load_check_entries data in
    let report = Obs_health.evaluate ~rules entries in
    if json then print_endline (Jsonx.to_string (Obs_health.report_to_json report))
    else Format.printf "%a" Obs_health.pp_report report;
    exit (Obs_health.exit_code report)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Evaluate declarative health rules against a finished trace or a \
          snapshot ring; exit 0 ok / 1 warn / 2 critical (3 on unreadable \
          input)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Rules come from a --rules file and/or repeated --rule flags. \
              A selector reads a counter's count, a gauge's value, a \
              histogram's mean, or a named stat (name.p99, name.count, \
              ...). A trailing ? makes a rule skip silently when its \
              metric is absent, letting one rules file serve both trace \
              and snapshot sources. Against a snapshot ring every frame \
              must satisfy every rule.";
         ])
    Term.(const run $ data $ rules_file $ rule_flags $ json)

(* ------------------------------------------------------------------ *)
(* fetch                                                               *)

let addr_of_string_or_die s =
  match Obs_http.addr_of_string s with
  | Ok a -> a
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 2

let fetch_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR" ~doc:"Server address (unix:PATH or HOST:PORT).")
  in
  let path =
    Arg.(
      value
      & pos 1 string "/metrics"
      & info [] ~docv:"PATH" ~doc:"Path to request (default /metrics).")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate-prom" ]
          ~doc:
            "Instead of printing the body, pipe it through the \
             Prometheus exposition validator and print the sample \
             count.")
  in
  let attempts =
    Arg.(
      value & opt int 100
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Connect retries at 50 ms intervals while the server is \
             still starting.")
  in
  let run addr path validate attempts =
    let addr = addr_of_string_or_die addr in
    match Obs_http.fetch ~attempts ~addr path with
    | Error msg -> die_data msg
    | Ok (status, body) ->
        (if validate then begin
           let lines =
             List.filter
               (fun l -> l <> "")
               (String.split_on_char '\n' body)
           in
           match Obs_export.validate_prometheus lines with
           | Ok n -> Format.printf "valid exposition: %d sample(s)@." n
           | Error msg -> die_data ("invalid exposition: " ^ msg)
         end
         else print_string body);
        if status >= 400 then begin
          Format.eprintf "HTTP %d %s@." status
            (Obs_http.status_reason status);
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:
         "Minimal scrape client: GET a path from a running collect \
          --http endpoint, print the body (exit 1 on any 4xx/5xx, so /health doubles \
          as a probe).")
    Term.(const run $ addr $ path $ validate $ attempts)

(* ------------------------------------------------------------------ *)
(* collect                                                             *)

let collect_cmd =
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Where producers connect: $(b,unix:PATH) or $(b,HOST:PORT) \
             (port 0 picks one).")
  in
  let http =
    Arg.(
      value
      & opt (some string) None
      & info [ "http" ] ~docv:"ADDR"
          ~doc:
            "Also serve /metrics (live aggregated registry) and /health \
             (503 while any alert fires) here.")
  in
  let producers =
    Arg.(
      value & opt int 1
      & info [ "producers" ] ~docv:"N"
          ~doc:"With $(b,--once): stop after $(docv) finalized streams.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Exit after the expected number of streams (see \
             $(b,--producers)) has been finalized — the deterministic \
             mode for tests and CI.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Keep each stream's JSONL trace here as RUN_ID.jsonl \
             (suffixed on collision).")
  in
  let rules_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:"Health rules evaluated live against the merged stream.")
  in
  let rule_flags =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"RULE" ~doc:"Inline health rule; repeatable.")
  in
  let alert_every =
    Arg.(
      value & opt int 64
      & info [ "alert-every" ] ~docv:"N"
          ~doc:
            "Evaluate the rules every $(docv) accepted events (plus at \
             every stream finalization).")
  in
  let addr_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound listen address here once accepting — lets \
             a script poll for readiness instead of racing the bind.")
  in
  let run listen http producers once out_dir rules_file rule_flags alert_every
      addr_file =
    let listen = addr_of_string_or_die listen in
    let http = Option.map addr_of_string_or_die http in
    (* Unlike `check`, alerting is optional: a collector with no rules
       still merges traces and serves metrics. *)
    let rules =
      if rules_file = None && rule_flags = [] then []
      else gather_rules rules_file rule_flags
    in
    (* Log lines come from per-connection threads; one mutex keeps
       them whole. *)
    let log_mu = Mutex.create () in
    let log line =
      Mutex.lock log_mu;
      print_endline line;
      flush stdout;
      Mutex.unlock log_mu
    in
    let ready bound =
      (match addr_file with
      | Some f ->
          write_lines f [ Format.asprintf "%a" Obs_http.pp_addr bound ]
      | None -> ());
      log (Format.asprintf "collecting on %a" Obs_http.pp_addr bound)
    in
    match
      Obs_collect.run ?http ~producers ~once ?out_dir ~rules ~alert_every
        ~log ~ready ~listen ()
    with
    | Error msg -> die_data msg
    | Ok summary -> Format.printf "%a@." Obs_collect.pp_summary summary
  in
  Cmd.v
    (Cmd.info "collect"
       ~doc:
         "Run the streaming telemetry collector: accept csctl \
          --emit producers, merge their event streams into JSONL \
          traces, serve live aggregated /metrics, and raise \
          streaming alerts."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Producers speak the length-prefixed Obs_stream frame \
              protocol: HELLO carrying the run's provenance header, \
              strictly sequenced events, heartbeats carrying drop \
              counters, and BYE. Each stream is written back out as an \
              ordinary JSONL trace — $(b,cstrace diff)-identical to \
              the same run's locally written file — in the $(b,--out) \
              directory. A stream that ends without BYE is \
              finalized with an explicit truncation marker instead of \
              passing for a complete run.";
         ])
    Term.(
      const run $ listen $ http $ producers $ once $ out_dir $ rules_file
      $ rule_flags $ alert_every $ addr_file)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "trace analytics for cycle-stealing runs: summarise, diff, flamegraph, \
     export, health-check and collect the observability layer's artifacts"
  in
  let info = Cmd.info "cstrace" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            report_cmd;
            diff_cmd;
            flame_cmd;
            prom_cmd;
            timeline_cmd;
            check_cmd;
            fetch_cmd;
            collect_cmd;
          ]))
