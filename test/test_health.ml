(* Health rules: the .cshealth grammar, resolution over a list of named
   values (the shape Trace_report.values hands cstrace check), and
   verdict/exit-code semantics. *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A count listed by its bare name, a distribution by its stats, and a
   value that is nan. *)
let values =
  [
    ("trace.periods_killed", 5.0);
    ("trace.pool_remaining", 0.0);
    ("episode.elapsed.count", 4.0);
    ("episode.elapsed.sum", 10.0);
    ("episode.elapsed.mean", 2.5);
    ("episode.elapsed.min", 1.0);
    ("episode.elapsed.max", 4.0);
    ("episode.elapsed.p50", 2.5);
    ("episode.elapsed.p95", 3.85);
    ("episode.elapsed.p99", 3.97);
    ("empty.dist.count", 0.0);
    ("unset", Float.nan);
  ]

(* ---- parsing ---- *)

let parse_ok line =
  match Obs_health.parse_rule line with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" line e

let test_parse_rule () =
  let r = parse_ok "critical pool.chunk_order_violations == 0" in
  Alcotest.(check bool) "critical" true (r.Obs_health.severity = Obs_health.Critical);
  Alcotest.(check string) "selector" "pool.chunk_order_violations"
    r.Obs_health.selector;
  Alcotest.(check bool) "not optional" false r.Obs_health.optional;
  Alcotest.(check (float 0.0)) "threshold" 0.0 r.Obs_health.threshold;
  let r = parse_ok "warn gc.promoted_words? <= 5e8" in
  Alcotest.(check bool) "warn" true (r.Obs_health.severity = Obs_health.Warn);
  Alcotest.(check bool) "optional" true r.Obs_health.optional;
  Alcotest.(check string) "? stripped" "gc.promoted_words"
    r.Obs_health.selector;
  Alcotest.(check (float 0.0)) "sci threshold" 5e8 r.Obs_health.threshold

let test_parse_rejects () =
  List.iter
    (fun line ->
      match Obs_health.parse_rule line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "";
      "info x < 1";
      "warn x ~ 1";
      "warn x <";
      "warn x < one";
      "warn x < 1 extra";
      "warn x <= nan";
    ]

let test_parse_document () =
  let doc =
    "# comment\n\nwarn a.b <= 1\n   # indented comment\ncritical c.d? != 0\n"
  in
  (match Obs_health.parse doc with
  | Error e -> Alcotest.failf "doc: %s" e
  | Ok rules -> Alcotest.(check int) "two rules" 2 (List.length rules));
  match Obs_health.parse "warn a < 1\nbogus line\n" with
  | Ok _ -> Alcotest.fail "accepted bogus line"
  | Error e ->
      Alcotest.(check bool) "error names line 2" true
        (contains ~affix:"line 2" e)

let print_rule r = Format.asprintf "%a" Obs_health.pp_rule r

let le_rule threshold =
  {
    Obs_health.severity = Obs_health.Warn;
    selector = "x";
    optional = false;
    op = Obs_health.Le;
    threshold;
  }

(* [%g] would print 1234567 as 1.23457e+06 and 0.1 +. 0.2 as 0.3. *)
let test_printed_thresholds () =
  List.iter
    (fun (x, shown) ->
      let r = le_rule x in
      Alcotest.(check string) shown ("warn x <= " ^ shown) (print_rule r);
      Alcotest.(check bool) (shown ^ " parses back") true
        (Obs_health.parse_rule (print_rule r) = Ok r))
    [
      (1234567.0, "1234567");
      (0.1 +. 0.2, "0.30000000000000004");
      (5e8, "5e+08");
      (20.0, "20");
    ]

(* Any threshold the grammar admits: every non-nan bit pattern,
   integers and short decimals. *)
let gen_rule =
  QCheck.Gen.(
    map
      (fun ((severity, selector, optional), (op, threshold)) ->
        { Obs_health.severity; selector; optional; op; threshold })
      (pair
         (triple
            (oneofl [ Obs_health.Warn; Obs_health.Critical ])
            (string_size ~gen:(oneofl [ 'a'; 'z'; '.'; '_'; '0'; '9' ])
               (int_range 1 12))
            bool)
         (pair
            (oneofl Obs_health.[ Lt; Le; Gt; Ge; Eq; Ne ])
            (map
               (fun x -> if Float.is_nan x then Float.infinity else x)
               (frequency
                  [
                    (2, map Int64.float_of_bits int64);
                    (1, map float_of_int small_signed_int);
                    (1, float);
                  ])))))

let prop_rule_roundtrip =
  QCheck.Test.make ~name:"parse_rule (pp_rule r) = Ok r" ~count:500
    (QCheck.make ~print:print_rule gen_rule)
    (fun r -> Obs_health.parse_rule (print_rule r) = Ok r)

let prop_rule_mutations =
  Mutation.total ~name:"mutated rules file parses or errors"
    QCheck.Gen.(
      map
        (fun rules ->
          String.concat "\n" ("# health rules" :: List.map print_rule rules))
        (list_size (int_bound 8) gen_rule))
    Obs_health.parse

(* ---- resolution ---- *)

let test_resolve () =
  let get sel = Obs_health.resolve values sel in
  let check name expected sel =
    Alcotest.(check (option (float 0.0))) name expected (get sel)
  in
  check "count" (Some 5.0) "trace.periods_killed";
  check "counter.count" (Some 5.0) "trace.periods_killed.count";
  check "bare name = mean" (Some 2.5) "episode.elapsed";
  check ".p99" (Some 3.97) "episode.elapsed.p99";
  check ".count" (Some 4.0) "episode.elapsed.count";
  check ".sum" (Some 10.0) "episode.elapsed.sum";
  check "zero value" (Some 0.0) "trace.pool_remaining";
  check "absent" None "no.such";
  check "absent stat" None "trace.periods_killed.p99";
  (* An empty distribution lists only its count: its bare name (the
     mean) does not resolve. *)
  check "empty count" (Some 0.0) "empty.dist.count";
  check "empty mean" None "empty.dist";
  (* A nan value must not resolve. *)
  check "nan unresolved" None "unset"

(* ---- evaluation ---- *)

let rules_of text =
  match Obs_health.parse text with
  | Ok r -> r
  | Error e -> Alcotest.failf "rules: %s" e

let test_evaluate_verdicts () =
  let run text = Obs_health.evaluate ~rules:(rules_of text) values in
  let code text = Obs_health.exit_code (run text) in
  Alcotest.(check int) "all pass" 0
    (code
       "critical trace.pool_remaining == 0\n\
        warn trace.periods_killed >= 1\n\
        warn episode.elapsed.p99 < 4\n");
  Alcotest.(check int) "warn fail" 1 (code "warn trace.periods_killed >= 100\n");
  Alcotest.(check int) "critical fail" 2
    (code "critical trace.periods_killed >= 100\n");
  Alcotest.(check int) "critical dominates warn" 2
    (code "warn trace.periods_killed >= 1\ncritical episode.elapsed.max < 1\n");
  Alcotest.(check int) "missing non-optional is warn-level" 1
    (code "critical absent.metric == 0\n");
  Alcotest.(check int) "missing optional is skipped" 0
    (code "critical absent.metric? == 0\n");
  let r = run "warn trace.periods_killed >= 100\n" in
  (match r.Obs_health.outcomes with
  | [ (_, Obs_health.Fail { value }) ] ->
      Alcotest.(check (float 0.0)) "offending value" 5.0 value
  | _ -> Alcotest.fail "expected one Fail outcome");
  Alcotest.(check string) "verdict string" "warn"
    (Obs_health.verdict_to_string r.Obs_health.verdict)

let test_report_json () =
  let r =
    Obs_health.evaluate
      ~rules:
        (rules_of "warn trace.periods_killed >= 100\ncritical absent? == 0\n")
      values
  in
  let j = Obs_health.report_to_json r in
  match j with
  | Jsonx.Obj fields ->
      Alcotest.(check bool) "verdict warn" true
        (List.assoc "verdict" fields = Jsonx.String "warn");
      (match List.assoc "rules" fields with
      | Jsonx.List [ Jsonx.Obj f1; Jsonx.Obj f2 ] ->
          Alcotest.(check bool) "rule 1 failed" true
            (List.assoc "status" f1 = Jsonx.String "fail");
          Alcotest.(check bool) "rule 2 skipped" true
            (List.assoc "status" f2 = Jsonx.String "skipped")
      | _ -> Alcotest.fail "rules array shape")
  | _ -> Alcotest.fail "object expected"

let () =
  Alcotest.run "health"
    [
      ( "grammar",
        [
          Alcotest.test_case "rule line" `Quick test_parse_rule;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "document" `Quick test_parse_document;
          Alcotest.test_case "printed thresholds exact" `Quick
            test_printed_thresholds;
          QCheck_alcotest.to_alcotest prop_rule_roundtrip;
          QCheck_alcotest.to_alcotest prop_rule_mutations;
        ] );
      ("resolve", [ Alcotest.test_case "selectors" `Quick test_resolve ]);
      ( "evaluate",
        [
          Alcotest.test_case "verdicts and exit codes" `Quick
            test_evaluate_verdicts;
          Alcotest.test_case "json report" `Quick test_report_json;
        ] );
    ]
