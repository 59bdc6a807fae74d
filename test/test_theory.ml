let c = 1.0

let check_pass name (chk : Theory.check) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s (%s)" name chk.Theory.name chk.Theory.detail)
    true chk.Theory.holds

let check_fail name (chk : Theory.check) =
  Alcotest.(check bool)
    (Printf.sprintf "%s should fail: %s" name chk.Theory.name)
    false chk.Theory.holds

let test_exact_uniform_passes_all () =
  let lf = Families.uniform ~lifespan:100.0 in
  let exact = Exact.uniform ~c ~lifespan:100.0 in
  List.iter (check_pass "uniform exact") (Theory.full_report lf ~c exact.Exact.schedule)

let test_guideline_geo_inc_passes_all () =
  let lf = Families.geometric_increasing ~lifespan:30.0 in
  let g = Guideline.plan lf ~c in
  List.iter (check_pass "geo-inc guideline")
    (Theory.full_report lf ~c g.Guideline.schedule)

let test_guideline_geo_dec_passes_all () =
  let lf = Families.geometric_decreasing ~a:(exp 0.05) in
  let g = Guideline.plan lf ~c in
  List.iter (check_pass "geo-dec guideline")
    (Theory.full_report lf ~c g.Guideline.schedule)

let test_decrement_detects_violation () =
  (* Increasing internal periods on a concave function violate Thm 5.2. *)
  let lf = Families.polynomial ~d:2 ~lifespan:100.0 in
  let s = Schedule.of_list [ 5.0; 10.0; 15.0; 3.0 ] in
  check_fail "increasing periods" (Theory.decrement_check lf ~c s)

let test_decrement_convex_direction () =
  (* For convex p, periods must NOT shrink faster than c. *)
  let lf = Families.geometric_decreasing ~a:(exp 0.1) in
  let bad = Schedule.of_list [ 20.0; 10.0; 5.0; 4.0 ] in
  check_fail "fast-shrinking on convex" (Theory.decrement_check lf ~c bad);
  let good = Schedule.of_list [ 11.0; 11.0; 11.0; 11.0 ] in
  check_pass "equal periods on convex" (Theory.decrement_check lf ~c good)

let test_decrement_vacuous_for_unknown () =
  let lf =
    Life_function.make ~name:"opaque" ~support:(Life_function.Bounded 50.0)
      (fun t -> 1.0 -. (t /. 50.0))
  in
  let s = Schedule.of_list [ 5.0; 10.0; 2.0 ] in
  check_pass "unknown shape vacuous" (Theory.decrement_check lf ~c s);
  (* Thm 5.2 does not cover log-concave p either; it says so. *)
  let chk =
    Theory.decrement_check (Families.weibull ~shape:1.5 ~scale:80.0) ~c s
  in
  check_pass "log-concave vacuous" chk;
  Alcotest.(check string) "label" "log-concave: vacuous" chk.Theory.detail

let test_period_count_detects_violation () =
  let lf = Families.uniform ~lifespan:20.0 in
  (* Cor 5.3 bound for L=20, c=1 is ceil(sqrt 40.25 + .5) = 7; use 12. *)
  let s = Schedule.of_periods (Array.make 12 1.6) in
  check_fail "too many periods" (Theory.period_count_check lf ~c s)

let test_t0_bounds_detects_violation () =
  let lf = Families.uniform ~lifespan:100.0 in
  (* t0 = 70 is far above the Thm 3.3 bracket (~19). *)
  let s = Schedule.of_list [ 70.0; 5.0 ] in
  check_fail "t0 too large" (Theory.t0_bounds_check lf ~c s)

let test_recurrence_check_detects_violation () =
  let lf = Families.uniform ~lifespan:100.0 in
  let s = Schedule.of_list [ 10.0; 10.0 ] in
  check_fail "equal periods violate eq 3.6" (Theory.recurrence_check lf ~c s)

let test_local_optimality_detects_violation () =
  let lf = Families.uniform ~lifespan:100.0 in
  let s = Schedule.of_list [ 30.0; 30.0; 30.0 ] in
  check_fail "perturbable schedule" (Theory.local_optimality_check lf ~c s)

let test_full_report_covers_five_checks () =
  let lf = Families.uniform ~lifespan:100.0 in
  let g = Guideline.plan lf ~c in
  Alcotest.(check int) "five checks" 5
    (List.length (Theory.full_report lf ~c g.Guideline.schedule))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pp_check_output () =
  let chk = { Theory.name = "x"; holds = true; detail = "ok" } in
  let s = Format.asprintf "%a" Theory.pp_check chk in
  Alcotest.(check bool) "mentions PASS" true (contains s "PASS");
  let bad = { Theory.name = "y"; holds = false; detail = "broken" } in
  let s' = Format.asprintf "%a" Theory.pp_check bad in
  Alcotest.(check bool) "mentions FAIL" true (contains s' "FAIL")

let prop_guideline_schedules_pass_structure_checks =
  QCheck.Test.make
    ~name:"guideline schedules pass decrement+recurrence checks" ~count:20
    QCheck.(pair (float_range 0.5 1.5) (float_range 40.0 150.0))
    (fun (c, l) ->
      let lf = Families.polynomial ~d:2 ~lifespan:l in
      let g = Guideline.plan lf ~c in
      (Theory.decrement_check lf ~c g.Guideline.schedule).Theory.holds
      && (Theory.recurrence_check lf ~c g.Guideline.schedule).Theory.holds)

let () =
  Alcotest.run "theory"
    [
      ( "pass-cases",
        [
          Alcotest.test_case "exact uniform all pass" `Quick
            test_exact_uniform_passes_all;
          Alcotest.test_case "guideline geo-inc all pass" `Quick
            test_guideline_geo_inc_passes_all;
          Alcotest.test_case "guideline geo-dec all pass" `Quick
            test_guideline_geo_dec_passes_all;
          Alcotest.test_case "five checks in report" `Quick
            test_full_report_covers_five_checks;
          QCheck_alcotest.to_alcotest
            prop_guideline_schedules_pass_structure_checks;
        ] );
      ( "fail-cases",
        [
          Alcotest.test_case "decrement violation" `Quick
            test_decrement_detects_violation;
          Alcotest.test_case "convex direction" `Quick
            test_decrement_convex_direction;
          Alcotest.test_case "unknown shape vacuous" `Quick
            test_decrement_vacuous_for_unknown;
          Alcotest.test_case "period count violation" `Quick
            test_period_count_detects_violation;
          Alcotest.test_case "t0 bounds violation" `Quick
            test_t0_bounds_detects_violation;
          Alcotest.test_case "recurrence violation" `Quick
            test_recurrence_check_detects_violation;
          Alcotest.test_case "local optimality violation" `Quick
            test_local_optimality_detects_violation;
          Alcotest.test_case "pp output" `Quick test_pp_check_output;
        ] );
    ]
