(* The read side of the observability stack: meta headers and run
   ids, trace loading/filtering/diffing (Obs_query) and the loader's
   robustness to mutated traces, export format round-trips (Obs_export
   folded stacks and Prometheus exposition), the determinism of a
   run's final registry snapshot, and the Obs_fork gather edge
   cases. *)

let with_temp_file suffix k =
  let path = Filename.temp_file "cs_query" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let write_file path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Meta headers                                                       *)

let test_meta_roundtrip () =
  let m =
    Obs_meta.make ~git_sha:"abc123" ~seed:42L ~jobs:2
      ~scenario:"simulate family=uniform" ()
  in
  let m' = ok (Obs_meta.of_json (ok (Jsonx.of_string (Jsonx.to_string (Obs_meta.to_json m))))) in
  Alcotest.(check bool) "round-trips" true (m = m');
  (* Optional fields absent round-trip too. *)
  let bare = { m with Obs_meta.git_sha = None; seed = None; jobs = None; scenario = None } in
  let bare' = ok (Obs_meta.of_json (Obs_meta.to_json bare)) in
  Alcotest.(check bool) "bare round-trips" true (bare = bare');
  (* Keys this reader does not know are ignored, so a header carrying
     the retired run_id field, or a key from a later writer, still
     loads. *)
  let with_extra =
    match Obs_meta.to_json m with
    | Jsonx.Obj fields ->
        Jsonx.Obj
          (fields
          @ [ ("run_id", Jsonx.String "abc"); ("later", Jsonx.Int 1) ])
    | _ -> assert false
  in
  Alcotest.(check bool) "unknown keys ignored" true
    (ok (Obs_meta.of_json with_extra) = m)

let test_meta_rejects () =
  let m = Obs_meta.make ~git_sha:"abc" ~seed:1L () in
  let j = Obs_meta.to_json m in
  let mutate key v =
    match j with
    | Jsonx.Obj fields ->
        Jsonx.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> assert false
  in
  List.iter
    (fun (label, bad) ->
      match Obs_meta.of_json bad with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("wrong meta version", mutate "v" (Jsonx.Int 99));
      ("wrong event schema", mutate "schema" (Jsonx.Int 999));
      ("wrong type tag", mutate "type" (Jsonx.String "event"));
      ("missing schema", Jsonx.Obj [ ("v", Jsonx.Int 1); ("type", Jsonx.String "meta") ]);
    ]

(* Obs_meta.make defaults git_sha to the enclosing repository's HEAD;
   pin it (or its absence) explicitly so headers are reproducible here. *)
let meta ?git_sha ?seed ?scenario () =
  let m = Obs_meta.make ?seed ?scenario () in
  { m with Obs_meta.git_sha }

(* ------------------------------------------------------------------ *)
(* Trace loading                                                      *)

let sample_events =
  Obs_event.
    [
      Run_started { time = 0.0; source = "test"; seed = Some 7L };
      Episode_started { time = 0.0; ws = 0; ep = 0 };
      Period_dispatched { time = 0.0; ws = 0; ep = 0; period = 4.0; assigned = 3.0 };
      Period_completed { time = 4.0; ws = 0; ep = 0; period = 4.0; banked = 3.0; overhead = 1.0 };
      Period_dispatched { time = 4.0; ws = 0; ep = 0; period = 6.0; assigned = 5.0 };
      Period_killed { time = 7.0; ws = 0; ep = 0; lost = 2.0; overhead = 1.0 };
      Owner_returned { time = 7.0; ws = 0; ep = 0 };
      Episode_finished { time = 7.0; ws = 0; ep = 0; work_done = 3.0; interrupted = true };
      Episode_started { time = 8.0; ws = 1; ep = 1 };
      Period_dispatched { time = 8.0; ws = 1; ep = 1; period = 5.0; assigned = 4.0 };
      Period_completed { time = 13.0; ws = 1; ep = 1; period = 5.0; banked = 4.0; overhead = 1.0 };
      Episode_finished { time = 13.0; ws = 1; ep = 1; work_done = 4.0; interrupted = false };
      Run_finished { time = 13.0 };
    ]

let event_lines events =
  List.map (fun ev -> Jsonx.to_string (Obs_event.to_json ev)) events

let test_load_with_header () =
  with_temp_file ".jsonl" (fun path ->
      let meta = Obs_meta.make ~git_sha:"deadbeef" ~seed:7L ~jobs:1 () in
      write_file path
        ((Jsonx.to_string (Obs_meta.to_json meta) :: event_lines sample_events));
      let t = ok (Obs_query.load path) in
      (match t.Obs_query.meta with
      | Some m ->
          Alcotest.(check bool) "seed surfaced" true (m.Obs_meta.seed = Some 7L)
      | None -> Alcotest.fail "meta not surfaced");
      Alcotest.(check int) "events loaded" (List.length sample_events)
        (List.length t.Obs_query.events);
      Alcotest.(check bool) "events equal" true
        (t.Obs_query.events = sample_events))

let test_load_headerless_and_bad_header () =
  with_temp_file ".jsonl" (fun path ->
      write_file path (event_lines sample_events);
      let t = ok (Obs_query.load path) in
      Alcotest.(check bool) "no meta" true (t.Obs_query.meta = None);
      (* A meta line with the wrong schema version is a load error. *)
      write_file path
        ({|{"v":1,"type":"meta","schema":999}|} :: event_lines sample_events);
      match Obs_query.load path with
      | Ok _ -> Alcotest.fail "accepted wrong-schema header"
      | Error msg ->
          Alcotest.(check bool) "error names line 1" true
            (contains_sub msg ":1:"));
  (* A directory opens but cannot be read: an Error naming it, not an
     exception. *)
  let dir = Filename.get_temp_dir_name () in
  match Obs_query.load dir with
  | Ok _ -> Alcotest.fail "loaded a directory"
  | Error msg ->
      Alcotest.(check bool) "error names the path" true
        (String.starts_with ~prefix:(dir ^ ": ") msg)

(* ------------------------------------------------------------------ *)
(* Filtering and episode rows                                         *)

let test_filter () =
  let by_kind = Obs_query.filter ~kind:"period_completed" sample_events in
  Alcotest.(check int) "kind" 2 (List.length by_kind);
  let by_ws = Obs_query.filter ~ws:1 sample_events in
  Alcotest.(check int) "ws" 4 (List.length by_ws);
  let window = Obs_query.filter ~since:4.0 ~until:8.0 sample_events in
  (* t in [4,8]: completed@4, dispatched@4, killed@7, owner@7, finished@7,
     started@8, dispatched@8. *)
  Alcotest.(check int) "window" 7 (List.length window);
  let none = Obs_query.filter ~kind:"plan_computed" sample_events in
  Alcotest.(check int) "absent kind" 0 (List.length none);
  Alcotest.(check int) "no criteria = identity"
    (List.length sample_events)
    (List.length (Obs_query.filter sample_events))

let test_episodes () =
  match Obs_query.episodes sample_events with
  | [ a; b ] ->
      Alcotest.(check int) "ws of first" 0 a.Obs_query.e_ws;
      Alcotest.(check int) "dispatched" 2 a.Obs_query.e_dispatched;
      Alcotest.(check int) "completed" 1 a.Obs_query.e_completed;
      Alcotest.(check int) "killed" 1 a.Obs_query.e_killed;
      Alcotest.(check (float 1e-12)) "work" 3.0 a.Obs_query.e_work;
      Alcotest.(check (float 1e-12)) "lost" 2.0 a.Obs_query.e_lost;
      Alcotest.(check (float 1e-12)) "overhead" 2.0 a.Obs_query.e_overhead;
      Alcotest.(check bool) "interrupted" true a.Obs_query.e_interrupted;
      Alcotest.(check bool) "finish" true (a.Obs_query.e_finish = Some 7.0);
      Alcotest.(check bool) "second not interrupted" false
        b.Obs_query.e_interrupted
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Diffing                                                            *)

let test_diff_identical () =
  Alcotest.(check bool) "identical" true
    (Obs_query.diff sample_events sample_events = None)

let test_diff_ignores_wall_time () =
  (* Planning wall time differs between every pair of runs; only the
     simulated-time payload is under the determinism contract. *)
  let plan elapsed =
    Obs_event.Plan_computed
      { source = "guideline"; t0 = 13.6; periods = 13; expected_work = 41.0; elapsed }
  in
  Alcotest.(check bool) "elapsed masked" true
    (Obs_query.diff [ plan 0.0017 ] [ plan 0.0093 ] = None);
  let other =
    Obs_event.Plan_computed
      { source = "guideline"; t0 = 14.0; periods = 13; expected_work = 41.0; elapsed = 0.0017 }
  in
  Alcotest.(check bool) "sim payload still compared" true
    (Obs_query.diff [ plan 0.0017 ] [ other ] <> None)

let test_diff_mutation () =
  let mutated =
    List.mapi
      (fun i ev ->
        if i = 5 then
          Obs_event.Period_killed
            { time = 7.0; ws = 0; ep = 0; lost = 2.5; overhead = 1.0 }
        else ev)
      sample_events
  in
  match Obs_query.diff ~context:2 sample_events mutated with
  | None -> Alcotest.fail "missed the mutation"
  | Some d ->
      Alcotest.(check int) "index" 5 d.Obs_query.d_index;
      Alcotest.(check int) "context bounded" 2
        (List.length d.Obs_query.d_context);
      Alcotest.(check bool) "both sides present" true
        (d.Obs_query.d_left <> None && d.Obs_query.d_right <> None);
      Alcotest.(check bool) "context is the shared prefix tail" true
        (d.Obs_query.d_context
        = [ List.nth sample_events 3; List.nth sample_events 4 ])

let test_diff_truncation () =
  let short = List.filteri (fun i _ -> i < 4) sample_events in
  match Obs_query.diff sample_events short with
  | None -> Alcotest.fail "missed the truncation"
  | Some d ->
      Alcotest.(check int) "index" 4 d.Obs_query.d_index;
      Alcotest.(check bool) "right ended" true (d.Obs_query.d_right = None);
      Alcotest.(check bool) "left present" true (d.Obs_query.d_left <> None)

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                      *)

let recorded_spans () =
  let r = Obs_span.create () in
  Obs_span.record r "root" (fun () ->
      Obs_span.record r "plan" (fun () ->
          Obs_span.record r "solve; fast" (fun () -> ()));
      Obs_span.record r "mc" (fun () -> ());
      Obs_span.record r "mc" (fun () -> ()));
  r

let test_folded_roundtrip () =
  let r = recorded_spans () in
  let folded = Obs_export.folded_of_spans (Obs_span.spans r) in
  let n = ok (Obs_export.validate_folded folded) in
  Alcotest.(check int) "distinct paths" 4 n;
  let paths = List.map (fun l -> List.hd (String.split_on_char ' ' l)) folded in
  Alcotest.(check (list string)) "paths, sorted, sanitized"
    [ "root"; "root;mc"; "root;plan"; "root;plan;solve__fast" ]
    paths;
  (* Chrome JSON → spans → folded gives the same stack set. *)
  let chrome = Obs_span.to_chrome_json r in
  let spans' = ok (Obs_export.spans_of_chrome chrome) in
  let folded' = Obs_export.folded_of_spans spans' in
  Alcotest.(check (list string)) "chrome round-trip" folded folded'

let test_folded_rejects () =
  List.iter
    (fun (label, lines) ->
      match Obs_export.validate_folded lines with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("no weight", [ "a;b" ]);
      ("float weight", [ "a;b 1.5" ]);
      ("negative weight", [ "a;b -3" ]);
      ("empty frame", [ "a;;b 1" ]);
      ("space in stack", [ "a b;c 1" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                              *)

let test_prometheus_roundtrip () =
  let reg = Obs_metrics.create () in
  Obs_metrics.add (Obs_metrics.counter reg "episode.runs") 3;
  Obs_metrics.set (Obs_metrics.gauge reg "farm.pool_remaining") 12.5;
  let h = Obs_metrics.histogram reg "episode.period_length" in
  List.iter (Obs_metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let lines = Obs_export.prometheus reg in
  let samples = ok (Obs_export.validate_prometheus lines) in
  (* counter + gauge + (3 quantiles + sum + count). *)
  Alcotest.(check int) "samples" 7 samples;
  Alcotest.(check bool) "counter line present" true
    (List.mem "cs_episode_runs_total 3" lines);
  Alcotest.(check bool) "gauge line present" true
    (List.mem "cs_farm_pool_remaining 12.5" lines);
  Alcotest.(check bool) "count line present" true
    (List.mem "cs_episode_period_length_count 4" lines);
  (* An empty histogram renders NaN quantiles that still validate. *)
  let reg2 = Obs_metrics.create () in
  ignore (Obs_metrics.histogram reg2 "empty.hist");
  Alcotest.(check int) "empty histogram samples" 5
    (ok (Obs_export.validate_prometheus (Obs_export.prometheus reg2)))

let test_prometheus_rejects () =
  List.iter
    (fun (label, lines) ->
      match Obs_export.validate_prometheus lines with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("sample without TYPE", [ "cs_x 1" ]);
      ("bad metric name", [ "# TYPE 9bad counter"; "9bad 1" ]);
      ( "unknown type",
        [ "# TYPE cs_x matrix"; "cs_x 1" ] );
      ("unparsable value", [ "# TYPE cs_x gauge"; "cs_x twelve" ]);
      ("malformed comment", [ "# NOPE cs_x gauge" ]);
      ( "bad label grammar",
        [ "# TYPE cs_x summary"; "cs_x{quantile=0.5} 1" ] );
    ]

let test_prometheus_of_trace () =
  let reg = Obs_query.metrics_of_events sample_events in
  let lines = Obs_export.prometheus reg in
  let _ = ok (Obs_export.validate_prometheus lines) in
  Alcotest.(check bool) "periods dispatched counted" true
    (List.mem "cs_trace_periods_dispatched_total 3" lines);
  Alcotest.(check bool) "pool gauge absent without Pool_drained" true
    (List.exists
       (String.ends_with ~suffix:"pool_remaining NaN")
       lines);
  (* A finish before its start and a negative period are left out of
     the histograms instead of raising. *)
  let odd =
    Obs_query.metrics_of_events
      Obs_event.
        [
          Episode_started { time = 5.0; ws = 0; ep = 0 };
          Period_dispatched { time = 5.0; ws = 0; ep = 0; period = -1.0; assigned = 0.0 };
          Episode_finished { time = 1.0; ws = 0; ep = 0; work_done = 0.0; interrupted = true };
        ]
  in
  Alcotest.(check bool) "impossible values left out" true
    (List.for_all
       (fun (_, h) -> h.Obs_metrics.hs_count = 0)
       (Obs_metrics.snapshot odd).Obs_metrics.snap_histograms)

(* ------------------------------------------------------------------ *)
(* Loader robustness                                                  *)

(* A seeded Monte-Carlo trace of ~400 lines, written through the Jsonl
   sink exactly as --trace writes it, plus the events that went in. *)
let mc_trace =
  lazy
    (let lf = Families.uniform ~lifespan:100.0 in
     let schedule = (Guideline.plan lf ~c:1.0).Guideline.schedule in
     let emitted = ref [] in
     with_temp_file ".jsonl" (fun path ->
         Obs.Sink.with_jsonl_file ~meta:(meta ~seed:3L ()) path (fun file ->
             let sink =
               Obs.Sink.Custom
                 (fun ev ->
                   Obs.Sink.emit file ev;
                   emitted := ev :: !emitted)
             in
             ignore
               (Monte_carlo.estimate ~obs:(Obs.create ~sink ()) ~trials:28 lf
                  ~c:1.0 ~schedule ~seed:3L));
         ( In_channel.with_open_bin path In_channel.input_all
           |> String.split_on_char '\n'
           |> List.filter (fun l -> l <> ""),
           List.rev !emitted )))

let test_mc_trace_loads_back () =
  let lines, emitted = Lazy.force mc_trace in
  Alcotest.(check bool) "about 400 lines" true
    (abs (List.length lines - 400) < 100);
  with_temp_file ".jsonl" (fun path ->
      write_file path lines;
      Alcotest.(check bool) "emitted events come back" true
        ((ok (Obs_query.load path)).Obs_query.events = emitted))

let odd_values =
  [| "1e999"; "-0"; "null"; {|"x"|}; "[]"; "12345678901234567890123" |]

(* Mutation [kind] of line [i]; [aux] picks the byte, bit, other line
   or odd value. A line carrying a newline splits in two on write. *)
let mutate lines kind i aux =
  let n = List.length lines in
  let line = List.nth lines (i mod n) and other = List.nth lines (aux mod n) in
  let len = String.length line in
  let put l = List.mapi (fun j x -> if j = i mod n then l else x) lines in
  match kind with
  | 0 ->
      let b = Bytes.of_string line and j = aux mod len in
      let bit = 1 lsl (aux / len mod 8) in
      Bytes.set b j (Char.chr (Char.code line.[j] lxor bit));
      put (Bytes.to_string b)
  | 1 -> put (String.sub line 0 (aux mod len))
  | 2 -> put (line ^ "\n" ^ other)
  | 3 -> put other
  | _ ->
      (* Swap the value after a ':' (up to the next ',' or '}'). *)
      let c =
        Option.value (String.index_from_opt line (aux mod len) ':')
          ~default:(String.index line ':')
      in
      let stop = ref (c + 1) in
      while !stop < len && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      let v = odd_values.(aux / len mod Array.length odd_values) in
      put (String.sub line 0 (c + 1) ^ v ^ String.sub line !stop (len - !stop))

let prop_load_total =
  QCheck.Test.make ~name:"a mutated trace loads or errors, never raises"
    ~count:80
    QCheck.(triple (int_bound 4) (int_bound 100_000) (int_bound 100_000))
    (fun (kind, i, aux) ->
      with_temp_file ".jsonl" (fun path ->
          write_file path (mutate (fst (Lazy.force mc_trace)) kind i aux);
          match Obs_query.load path with
          | Error _ -> true
          | Ok t ->
              let events = t.Obs_query.events in
              ignore
                (Format.asprintf "%a" Trace_report.pp
                   (Trace_report.of_events events));
              ignore (Obs_query.metrics_of_events events);
              true))

(* ------------------------------------------------------------------ *)
(* Registry snapshot                                                  *)

let test_snapshot_determinism_across_domains () =
  let lf = Families.uniform ~lifespan:30.0 in
  let plan = Guideline.plan lf ~c:1.0 in
  let run domains =
    let reg = Obs_metrics.create () in
    let obs = Obs.create ~metrics:reg () in
    let (_ : Monte_carlo.estimate) =
      Monte_carlo.estimate ~obs ?domains ~trials:2_000 lf ~c:1.0
        ~schedule:plan.Guideline.schedule ~seed:99L
    in
    Obs_metrics.snapshot reg
  in
  let serial = run None and parallel = run (Some 2) in
  Alcotest.(check bool) "episode counters present" true
    (List.mem_assoc "episode.runs" serial.Obs_metrics.snap_counters);
  (* Counters and sim-time histograms must agree bit-for-bit; wall-time
     histograms (episode.elapsed) legitimately differ. *)
  Alcotest.(check bool) "counters identical" true
    (serial.Obs_metrics.snap_counters = parallel.Obs_metrics.snap_counters);
  let period_length (s : Obs_metrics.snapshot) =
    List.assoc_opt "episode.period_length" s.Obs_metrics.snap_histograms
  in
  Alcotest.(check bool) "sim-time histogram present" true
    (period_length serial <> None);
  Alcotest.(check bool) "sim-time histogram identical" true
    (period_length serial = period_length parallel)

(* ------------------------------------------------------------------ *)
(* Obs_fork gather edge cases                                         *)

let test_gather_zero_event_chunks () =
  let collected = ref [] in
  let obs =
    Obs.create ~sink:(Obs.Sink.Custom (fun ev -> collected := ev :: !collected)) ()
  in
  let kids = Obs_fork.scatter obs ~n:4 in
  (* Only chunks 1 and 3 emit anything. *)
  List.iter
    (fun k ->
      Obs.emit (Obs_fork.child kids k)
        (Obs.Event.Pool_drained { time = float_of_int k; remaining = 0.0 }))
    [ 1; 3 ];
  Obs_fork.gather obs kids;
  let times =
    List.rev_map
      (function
        | Obs.Event.Pool_drained { time; _ } -> time | _ -> Float.nan)
      !collected
  in
  Alcotest.(check (list (float 0.0))) "chunk order, empties skipped"
    [ 1.0; 3.0 ] times

let test_gather_spans_only_chunk () =
  let recorder = Obs_span.create () in
  let obs = Obs.create ~spans:recorder () in
  let kids = Obs_fork.scatter obs ~n:2 in
  (match Obs.span_recorder (Obs_fork.child kids 1) with
  | Some r -> Obs_span.record r "work" (fun () -> ())
  | None -> Alcotest.fail "child has no recorder");
  Obs_fork.gather obs kids;
  Alcotest.(check int) "span absorbed" 1 (Obs_span.count recorder);
  Alcotest.(check (list string)) "span name" [ "work" ]
    (List.map (fun s -> s.Obs_span.name) (Obs_span.spans recorder))

let test_gather_sink_failure_raises () =
  (* A parent sink that fails must surface the exception from gather,
     not drop the buffered events silently. *)
  let obs =
    Obs.create ~sink:(Obs.Sink.Custom (fun _ -> failwith "sink full")) ()
  in
  let kids = Obs_fork.scatter obs ~n:1 in
  Obs.emit (Obs_fork.child kids 0) (Obs.Event.Run_finished { time = 0.0 });
  (match Obs_fork.gather obs kids with
  | () -> Alcotest.fail "swallowed the sink failure"
  | exception Failure msg -> Alcotest.(check string) "propagated" "sink full" msg);
  (* Same through a Jsonl sink whose channel was closed under it. *)
  with_temp_file ".jsonl" (fun path ->
      let oc = open_out path in
      let obs = Obs.create ~sink:(Obs.Sink.Jsonl oc) () in
      let kids = Obs_fork.scatter obs ~n:1 in
      Obs.emit (Obs_fork.child kids 0) (Obs.Event.Run_finished { time = 0.0 });
      close_out oc;
      match Obs_fork.gather obs kids with
      | () -> Alcotest.fail "swallowed the closed-channel write"
      | exception Sys_error _ -> ())

let () =
  Alcotest.run "query"
    [
      ( "meta",
        [
          Alcotest.test_case "round-trip" `Quick test_meta_roundtrip;
          Alcotest.test_case "strict decoding" `Quick test_meta_rejects;
        ] );
      ( "load",
        [
          Alcotest.test_case "with provenance header" `Quick
            test_load_with_header;
          Alcotest.test_case "headerless and bad header" `Quick
            test_load_headerless_and_bad_header;
          Alcotest.test_case "monte-carlo trace loads back" `Quick
            test_mc_trace_loads_back;
          QCheck_alcotest.to_alcotest prop_load_total;
        ] );
      ( "query",
        [
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "episode rows" `Quick test_episodes;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical streams" `Quick test_diff_identical;
          Alcotest.test_case "wall time ignored" `Quick
            test_diff_ignores_wall_time;
          Alcotest.test_case "mutation pinpointed" `Quick test_diff_mutation;
          Alcotest.test_case "truncation pinpointed" `Quick
            test_diff_truncation;
        ] );
      ( "folded",
        [
          Alcotest.test_case "round-trip and chrome import" `Quick
            test_folded_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_folded_rejects;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "round-trip" `Quick test_prometheus_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick
            test_prometheus_rejects;
          Alcotest.test_case "from trace events" `Quick
            test_prometheus_of_trace;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_snapshot_determinism_across_domains;
        ] );
      ( "fork",
        [
          Alcotest.test_case "zero-event chunks" `Quick
            test_gather_zero_event_chunks;
          Alcotest.test_case "spans-only chunk" `Quick
            test_gather_spans_only_chunk;
          Alcotest.test_case "sink failure surfaces" `Quick
            test_gather_sink_failure_raises;
        ] );
    ]
