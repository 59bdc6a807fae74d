(* Observability layer: Jsonx round-trips, metrics semantics, event
   codec, and the trace round-trip contract — a JSONL trace aggregates
   back to the emitting run's own report. *)

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)

let sample_json =
  Jsonx.Obj
    [
      ("null", Jsonx.Null);
      ("flag", Jsonx.Bool true);
      ("int", Jsonx.Int (-42));
      ("float", Jsonx.Float 0.1);
      ("tiny", Jsonx.Float 5e-324);
      ("neg", Jsonx.Float (-1.5));
      ("str", Jsonx.String "a\"b\\c\n\t \xe2\x82\xac");
      ("list", Jsonx.List [ Jsonx.Int 1; Jsonx.Float 2.5; Jsonx.String "x" ]);
      ("obj", Jsonx.Obj [ ("k", Jsonx.Bool false) ]);
    ]

let test_jsonx_roundtrip () =
  match Jsonx.of_string (Jsonx.to_string sample_json) with
  | Ok j -> Alcotest.(check bool) "structurally equal" true (j = sample_json)
  | Error e -> Alcotest.failf "parse error: %s" e

let test_jsonx_float_exact () =
  List.iter
    (fun x ->
      let s = Jsonx.to_string (Jsonx.Float x) in
      match Jsonx.of_string s with
      | Ok (Jsonx.Float y) ->
          Alcotest.(check bool)
            (Printf.sprintf "%h round-trips via %s" x s)
            true
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      | Ok (Jsonx.Int y) ->
          Alcotest.(check (float 0.0)) "integral float" x (float_of_int y)
      | Ok _ -> Alcotest.fail "not a number"
      | Error e -> Alcotest.failf "parse error: %s" e)
    [ 0.1; 1.0 /. 3.0; 1e300; 4e-320; -0.0; 13.642857147877194 ]

let test_jsonx_escapes () =
  (* \uXXXX escapes decode to UTF-8, surrogate pairs included. *)
  List.iter
    (fun input ->
      match Jsonx.of_string input with
      | Ok (Jsonx.String s) ->
          Alcotest.(check string) "decoded" "\xe2\x82\xac \xf0\x9f\x98\x80 \n" s
      | Ok _ -> Alcotest.fail "not a string"
      | Error e -> Alcotest.failf "parse error: %s" e)
    [ {|"€ 😀 \n"|}; {|"\u20ac \uD83D\ude00 \n"|} ]

let rejects label inputs () =
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "%s: accepted %S" label s
      | Error _ -> ())
    inputs

let test_jsonx_errors =
  rejects "malformed"
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "1 2";
      "tru";
      "\"unterminated";
      "{'a':1}";
      {|"\uzzzz"|};
      {|{"a":"\u12"}|};
      {|"\u1_23"|};
      {|"\uD800\u0041"|};
      {|"\uDBFF\uFFFF"|};
      {|"\uD800"|};
      {|"\uDC00"|};
      (* Not UTF-8: a lone 0xFF, a truncated sequence (E2 82), an
         overlong form (C0 AF) and an encoded surrogate (ED A0 80). *)
      "\"\xff\"";
      "\"\xe2\x82\"";
      "\"\xc0\xaf\"";
      "\"\xed\xa0\x80\"";
    ]

(* RFC 8259 §6–7 forms that are not JSON, one case each. *)
let test_jsonx_leading_zero =
  rejects "leading zero" [ "0123"; "-0123"; "00"; "[1,007]"; "01.5" ]

let test_jsonx_bare_point =
  rejects "empty fraction" [ "1."; "-1."; "1.e5"; "[1.,2]"; ".5"; "-.5" ]

let test_jsonx_raw_control =
  rejects "raw control byte"
    [ "\"a\nb\""; "\"\t\""; "\"\x00\""; "\"\x1f\""; "{\"k\x01\":1}" ]

(* Any float bit pattern (nan, infinities, subnormals, integral floats
   past 1e16), besides integers and the short decimals a trace holds. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (2, map Int64.float_of_bits int64);
        (1, map float_of_int int);
        (1, float);
      ])

(* Valid UTF-8: code points of every encoded length, surrogates
   excepted. *)
let gen_utf8 =
  QCheck.Gen.(
    map
      (fun cps ->
        let b = Buffer.create 16 in
        List.iter (fun cp -> Buffer.add_utf_8_uchar b (Uchar.of_int cp)) cps;
        Buffer.contents b)
      (list_size (int_bound 10)
         (frequency
            [
              (4, int_range 0 0x7F);
              (1, int_range 0x80 0x7FF);
              (1, int_range 0x800 0xD7FF);
              (1, int_range 0xE000 0xFFFF);
              (1, int_range 0x10000 0x10FFFF);
            ])))

(* JSON values whose strings [gen_string] draws. *)
let gen_json_of gen_string =
  QCheck.Gen.(
    sized_size (int_bound 40)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Jsonx.Null;
                 map (fun b -> Jsonx.Bool b) bool;
                 map (fun i -> Jsonx.Int i) int;
                 map (fun x -> Jsonx.Float x) gen_float;
                 map (fun s -> Jsonx.String s) gen_string;
               ]
           in
           if n <= 0 then leaf
           else
             let kids = list_size (int_bound 4) (self (n / 4)) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Jsonx.List l) kids);
                 ( 1,
                   map2
                     (fun ks vs -> Jsonx.Obj (List.combine ks vs))
                     (list_repeat 4 gen_string)
                     (list_repeat 4 (self (n / 4))) );
               ]))

(* What [to_string] keeps: a non-finite float has no JSON form. *)
let rec finite_only = function
  | Jsonx.Float x when not (Float.is_finite x) -> Jsonx.Null
  | Jsonx.List l -> Jsonx.List (List.map finite_only l)
  | Jsonx.Obj fields -> Jsonx.Obj (List.map (fun (k, v) -> (k, finite_only v)) fields)
  | j -> j

(* [to_string] round-trips the values whose strings are UTF-8, the only
   strings JSON text can hold (RFC 8259 §8.1). *)
let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string j) = Ok j" ~count:500
    (QCheck.make ~print:Jsonx.to_string (gen_json_of gen_utf8))
    (fun j -> Jsonx.of_string (Jsonx.to_string j) = Ok (finite_only j))

let prop_jsonx_mutations =
  Mutation.total ~name:"mutated JSON parses or errors" ~count:500 ~sep:','
    (QCheck.Gen.map Jsonx.to_string (gen_json_of QCheck.Gen.string_small))
    Jsonx.of_string

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_gauge () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "jobs" in
  Alcotest.(check int) "fresh counter" 0 (Obs.Metrics.count c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "after incr+add" 5 (Obs.Metrics.count c);
  Alcotest.(check int) "find-or-create is same instrument" 5
    (Obs.Metrics.count (Obs.Metrics.counter m "jobs"));
  let g = Obs.Metrics.gauge m "depth" in
  Alcotest.(check bool) "fresh gauge is nan" true
    (Float.is_nan (Obs.Metrics.gauge_value g));
  Obs.Metrics.set g 3.5;
  Obs.Metrics.set g 1.25;
  Alcotest.(check (float 0.0)) "last set wins" 1.25 (Obs.Metrics.gauge_value g);
  (* A name denotes one instrument kind. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs_metrics: \"jobs\" already registered as a non-gauge")
    (fun () -> ignore (Obs.Metrics.gauge m "jobs"))

(* ------------------------------------------------------------------ *)
(* Event codec                                                         *)

let all_events =
  Obs.Event.
    [
      Run_started { time = 0.0; source = "farm"; seed = Some 42L };
      Run_started { time = 0.0; source = "monte_carlo"; seed = None };
      Plan_computed
        {
          source = "guideline";
          t0 = 13.642857147877194;
          periods = 13;
          expected_work = 41.066071428571426;
        };
      Episode_started { time = 3.5; ws = 1; ep = 0 };
      Period_dispatched
        { time = 3.5; ws = 1; ep = 0; period = 13.6; assigned = 12.6 };
      Period_completed
        { time = 17.1; ws = 1; ep = 0; period = 13.6; banked = 12.6;
          overhead = 1.0 };
      Period_killed { time = 20.0; ws = 1; ep = 0; lost = 4.5; overhead = 0.0 };
      Owner_returned { time = 20.0; ws = 1; ep = 0 };
      Episode_finished
        { time = 20.0; ws = 1; ep = 0; work_done = 12.6; interrupted = true };
      Pool_drained { time = 88.25; remaining = 0.0 };
      Run_finished { time = 90.0 };
    ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let line = Jsonx.to_string (Obs.Event.to_json ev) in
      match Jsonx.of_string line with
      | Error e -> Alcotest.failf "reparse failed on %s: %s" line e
      | Ok j -> (
          match Obs.Event.of_json j with
          | Ok ev' ->
              Alcotest.(check bool) ("round-trip " ^ line) true (ev = ev')
          | Error e -> Alcotest.failf "decode failed on %s: %s" line e))
    all_events

(* Each line is rejected for the reason beside it, not for an earlier
   one: all but the version cases carry the current schema version. *)
let test_event_rejects () =
  List.iter
    (fun (s, reason) ->
      let j = Result.get_ok (Jsonx.of_string s) in
      match Obs.Event.of_json j with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error e ->
          Alcotest.(check string) s reason
            (String.sub e 0 (Int.min (String.length e) (String.length reason))))
    [
      ({|{"v":2,"type":"warp_drive","t":0.0}|}, "unknown event type");
      ({|{"v":99,"type":"run_finished","t":0.0}|}, "unsupported schema version");
      ({|{"v":1,"type":"run_finished","t":0.0}|}, "unsupported schema version");
      ({|{"type":"run_finished","t":0.0}|}, {|missing field "v"|});
      ( {|{"v":2,"type":"episode_started","t":0.0,"ws":"zero","ep":1}|},
        {|ill-typed field "ws"|} );
      ({|{"v":2,"type":"episode_started","t":0.0}|}, {|missing field "ws"|});
      ({|{"v":2,"type":"run_finished","t":1e999}|}, {|ill-typed field "t"|});
    ]

(* ------------------------------------------------------------------ *)
(* Trace round-trip against the live run's accounting                   *)

let farm_config =
  let ws =
    { Farm.ws_life = Families.uniform ~lifespan:100.0; ws_presence_mean = 50.0 }
  in
  {
    Farm.c = 1.0;
    total_work = 500.0;
    workstations = [ ws; ws; ws ];
    policy = Farm.guideline_policy;
    max_time = 1e6;
  }

let test_farm_trace_roundtrip () =
  let path = Filename.temp_file "cs_obs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let report =
        Obs.Sink.with_jsonl_file path (fun sink ->
            Farm.run ~obs:(Obs.create ~sink ()) farm_config ~seed:42L)
      in
      match Obs_query.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok t ->
          let tr = Trace_report.of_events t.Obs_query.events in
          Alcotest.(check (float 1e-6)) "total done" report.Farm.total_done
            tr.Trace_report.total_done;
          Alcotest.(check (float 1e-6)) "total lost" report.Farm.total_lost
            tr.Trace_report.total_lost;
          Alcotest.(check (float 1e-6)) "total overhead"
            report.Farm.total_overhead tr.Trace_report.total_overhead;
          let live f = List.fold_left (fun a w -> a + f w) 0 report.Farm.per_workstation in
          Alcotest.(check int) "episodes"
            (live (fun w -> w.Farm.episodes))
            tr.Trace_report.episodes_started;
          Alcotest.(check int) "completed"
            (live (fun w -> w.Farm.periods_completed))
            tr.Trace_report.periods_completed;
          Alcotest.(check int) "killed"
            (live (fun w -> w.Farm.periods_killed))
            tr.Trace_report.periods_killed;
          (* Per-workstation tables agree too. *)
          List.iter2
            (fun (w : Farm.ws_stats) (s : Trace_report.ws_summary) ->
              Alcotest.(check int) "ws id" w.Farm.ws_id s.Trace_report.ws;
              Alcotest.(check (float 1e-6)) "ws done" w.Farm.work_done
                s.Trace_report.work_done;
              Alcotest.(check (float 1e-6)) "ws overhead" w.Farm.overhead
                s.Trace_report.overhead;
              Alcotest.(check int) "ws killed" w.Farm.periods_killed
                s.Trace_report.periods_killed)
            report.Farm.per_workstation tr.Trace_report.per_ws;
          Alcotest.(check bool) "pool drained recorded" report.Farm.finished
            (tr.Trace_report.pool_drained_at <> None))

let test_monte_carlo_trace_roundtrip () =
  let lf = Families.uniform ~lifespan:100.0 in
  let schedule = (Guideline.plan lf ~c:1.0).Guideline.schedule in
  let path = Filename.temp_file "cs_obs_mc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let est =
        Obs.Sink.with_jsonl_file path (fun sink ->
            Monte_carlo.estimate
              ~obs:(Obs.create ~sink ())
              ~trials:500 lf ~c:1.0 ~schedule ~seed:7L)
      in
      match Obs_query.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok t ->
          let tr = Trace_report.of_events t.Obs_query.events in
          let n = float_of_int est.Monte_carlo.trials in
          Alcotest.(check int) "episodes = trials" est.Monte_carlo.trials
            tr.Trace_report.episodes_started;
          Alcotest.(check (float 1e-6)) "mean work"
            est.Monte_carlo.mean_work
            (tr.Trace_report.total_done /. n);
          Alcotest.(check (float 1e-6)) "mean overhead"
            est.Monte_carlo.mean_overhead
            (tr.Trace_report.total_overhead /. n);
          Alcotest.(check (float 1e-6)) "mean lost" est.Monte_carlo.mean_lost
            (tr.Trace_report.total_lost /. n);
          Alcotest.(check (float 1e-9)) "interrupted fraction"
            est.Monte_carlo.interrupted_fraction
            (float_of_int tr.Trace_report.episodes_interrupted /. n))

let test_metrics_match_report () =
  (* The trace is the one record of a run: the trace.* values that
     cstrace check judges, folded from its events, must restate the
     report's own sums, and each is the fold's own number. *)
  let events = ref [] in
  let sink = Obs.Sink.Custom (fun ev -> events := ev :: !events) in
  let report = Farm.run ~obs:(Obs.create ~sink ()) farm_config ~seed:3L in
  let tr = Trace_report.of_events (List.rev !events) in
  let values = Trace_report.values tr in
  let live f = List.fold_left (fun a w -> a + f w) 0 report.Farm.per_workstation in
  let value name =
    match List.assoc_opt name values with
    | Some v -> v
    | None -> Alcotest.failf "%s absent" name
  in
  let count name = int_of_float (value name) in
  Alcotest.(check int) "trace.periods_completed"
    (live (fun w -> w.Farm.periods_completed))
    (count "trace.periods_completed");
  Alcotest.(check int) "trace.periods_killed"
    (live (fun w -> w.Farm.periods_killed))
    (count "trace.periods_killed");
  Alcotest.(check int) "trace.episodes_started"
    (live (fun w -> w.Farm.episodes))
    (count "trace.episodes_started");
  Alcotest.(check int) "trace.banked.count"
    (live (fun w -> w.Farm.periods_completed))
    (count "trace.banked.count");
  Alcotest.(check (float 1e-6)) "trace.banked.sum" report.Farm.total_done
    (value "trace.banked.sum");
  Alcotest.(check (float 1e-6)) "trace.overhead.sum"
    report.Farm.total_overhead
    (value "trace.overhead.sum");
  Alcotest.(check (float 0.0)) "trace.pool_remaining"
    (Option.get tr.Trace_report.pool_remaining)
    (value "trace.pool_remaining");
  (* Quantiles are the exact ones report prints, not bucketed. *)
  List.iter
    (fun (name, xs) ->
      List.iter
        (fun (stat, q) ->
          Alcotest.(check (float 0.0)) (name ^ "." ^ stat)
            (Stats.quantile xs ~q)
            (value (name ^ "." ^ stat)))
        [ ("min", 0.0); ("p50", 0.5); ("p95", 0.95); ("p99", 0.99); ("max", 1.0) ])
    [
      ("trace.period_length", tr.Trace_report.period_lengths);
      ("trace.episode_duration", tr.Trace_report.episode_durations);
      ("trace.banked", tr.Trace_report.banked);
      ("trace.overhead", tr.Trace_report.overheads);
    ]

let test_disabled_obs_bit_identical () =
  (* The ?obs default must not perturb results in any way. *)
  List.iter
    (fun seed ->
      let plain = Farm.run farm_config ~seed in
      let disabled = Farm.run ~obs:Obs.disabled farm_config ~seed in
      let nulled = Farm.run ~obs:(Obs.create ()) farm_config ~seed in
      List.iter
        (fun (r : Farm.report) ->
          Alcotest.(check (float 0.0)) "makespan" plain.Farm.makespan
            r.Farm.makespan;
          Alcotest.(check (float 0.0)) "done" plain.Farm.total_done
            r.Farm.total_done;
          Alcotest.(check (float 0.0)) "lost" plain.Farm.total_lost
            r.Farm.total_lost;
          Alcotest.(check (float 0.0)) "overhead" plain.Farm.total_overhead
            r.Farm.total_overhead)
        [ disabled; nulled ])
    [ 1L; 42L; 1234L ]

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "value round-trip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "float bit-exactness" `Quick
            test_jsonx_float_exact;
          Alcotest.test_case "unicode escapes" `Quick test_jsonx_escapes;
          Alcotest.test_case "malformed input rejected" `Quick
            test_jsonx_errors;
          Alcotest.test_case "leading zero rejected" `Quick
            test_jsonx_leading_zero;
          Alcotest.test_case "empty fraction rejected" `Quick
            test_jsonx_bare_point;
          Alcotest.test_case "raw control byte rejected" `Quick
            test_jsonx_raw_control;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonx_mutations;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
        ] );
      ( "events",
        [
          Alcotest.test_case "all variants round-trip" `Quick
            test_event_roundtrip;
          Alcotest.test_case "strict decoding" `Quick test_event_rejects;
        ] );
      ( "trace",
        [
          Alcotest.test_case "farm JSONL round-trip" `Quick
            test_farm_trace_roundtrip;
          Alcotest.test_case "monte-carlo JSONL round-trip" `Quick
            test_monte_carlo_trace_roundtrip;
          Alcotest.test_case "metrics agree with report" `Quick
            test_metrics_match_report;
          Alcotest.test_case "disabled obs is bit-identical" `Quick
            test_disabled_obs_bit_identical;
        ] );
    ]
