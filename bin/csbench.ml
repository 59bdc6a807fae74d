(* csbench — the bench-trajectory tool: diff and gate BENCH_T1.json
   records, and summarise the BENCH_HISTORY.jsonl trajectory.

   Subcommands:
     csbench diff    OLD.json NEW.json     # full comparison table
     csbench check   OLD.json NEW.json     # same, exit 1 on regressions
     csbench history BENCH_HISTORY.jsonl   # trajectory summary

   [check] is the regression gate: verdicts come from Bench_gate's
   noise-aware tolerances (a benchmark whose fit has low r^2 gets a
   proportionally wider band), and the exit status is 0 when every
   shared benchmark is within its band, 1 otherwise. [--advisory]
   always exits 0 so CI can surface the table without failing the
   build while a baseline machine profile is being established.

   Exit codes: 0 ok, 1 confirmed regression(s), 2 usage / unreadable
   or malformed input. *)

open Cmdliner

let load_or_die path =
  match Bench_record.load path with
  | Ok r -> r
  | Error msg ->
      prerr_endline ("csbench: " ^ msg);
      exit 2

let old_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OLD" ~doc:"Baseline BENCH_T1.json record.")

let new_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"NEW" ~doc:"Candidate BENCH_T1.json record.")

let tol_term =
  Arg.(
    value & opt float 0.15
    & info [ "tol"; "base-tolerance" ] ~docv:"FRAC"
        ~doc:
          "Base fractional tolerance applied to a perfectly clean fit \
           (r^2 = 1).")

let noise_scale_term =
  Arg.(
    value & opt float 0.85
    & info [ "noise-scale" ] ~docv:"FRAC"
        ~doc:
          "How much the tolerance widens as fit quality degrades: \
           tol = base + scale * (1 - min r^2).")

let header (r : Bench_record.t) =
  Printf.sprintf "%s @ %s (ocaml %s, host %s)" r.Bench_record.suite
    r.Bench_record.git_sha r.Bench_record.ocaml r.Bench_record.hostname

let compare_files ~base_tolerance ~noise_scale old_path new_path =
  let old_run = load_or_die old_path in
  let new_run = load_or_die new_path in
  (try
     Format.printf "old: %s@.new: %s@.@." (header old_run) (header new_run)
   with Sys_error _ -> ());
  let report =
    Bench_gate.compare_runs ~base_tolerance ~noise_scale ~old_run ~new_run ()
  in
  Format.printf "%a" Bench_gate.pp report;
  report

let diff_cmd =
  let run base_tolerance noise_scale old_path new_path =
    ignore (compare_files ~base_tolerance ~noise_scale old_path new_path)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two bench records and print the per-benchmark verdict \
          table (never fails on regressions; see $(b,check)).")
    Term.(const run $ tol_term $ noise_scale_term $ old_arg $ new_arg)

let check_cmd =
  let advisory =
    Arg.(
      value & flag
      & info [ "advisory" ]
          ~doc:
            "Print the comparison but always exit 0 — for CI runners \
             whose timing baseline is not yet trusted.")
  in
  let run base_tolerance noise_scale advisory old_path new_path =
    let report =
      compare_files ~base_tolerance ~noise_scale old_path new_path
    in
    if Bench_gate.has_regressions report then begin
      if advisory then
        print_endline "advisory mode: regressions reported but not fatal"
      else exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Gate a candidate record against a baseline: exit 1 when any \
          benchmark regresses beyond its noise-aware tolerance.")
    Term.(
      const run $ tol_term $ noise_scale_term $ advisory $ old_arg $ new_arg)

let history_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HISTORY"
          ~doc:"BENCH_HISTORY.jsonl trajectory (one record per line).")
  in
  let bench_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"NAME"
          ~doc:"Only show the trajectory of benchmark $(docv).")
  in
  let run file bench_filter =
    match Bench_record.load_history file with
    | Error msg ->
        prerr_endline ("csbench: " ^ msg);
        exit 2
    | Ok [] -> print_endline "history is empty"
    | Ok records -> (
        match bench_filter with
        | None ->
            Format.printf "%d run(s)@." (List.length records);
            List.iter
              (fun (r : Bench_record.t) ->
                Format.printf "  %s — %d benchmark(s), quota %.2fs@."
                  (header r)
                  (List.length r.Bench_record.results)
                  r.Bench_record.quota_seconds)
              records
        | Some name ->
            let shown = ref 0 in
            List.iter
              (fun (r : Bench_record.t) ->
                match List.assoc_opt name r.Bench_record.results with
                | None -> ()
                | Some e ->
                    incr shown;
                    Format.printf "  %-24s %12.1f ns/call  r^2 %s@."
                      r.Bench_record.git_sha e.Bench_record.ns_per_call
                      (if Float.is_nan e.Bench_record.r_square then "n/a"
                       else Printf.sprintf "%.3f" e.Bench_record.r_square))
              records;
            if !shown = 0 then
              Format.printf "benchmark %S not present in any run@." name)
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Summarise a BENCH_HISTORY.jsonl bench trajectory.")
    Term.(const run $ file $ bench_filter)

let () =
  let doc = "bench-record diffing and the noise-aware regression gate" in
  let info = Cmd.info "csbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ diff_cmd; check_cmd; history_cmd ]))
