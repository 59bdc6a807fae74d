let test_matches_exact_uniform () =
  let c = 1.0 and l = 60.0 in
  let lf = Families.uniform ~lifespan:l in
  let o = Optimizer.optimal_schedule lf ~c in
  let exact = Exact.uniform ~c ~lifespan:l in
  Alcotest.(check bool) "within 0.5% of exact" true
    (o.Optimizer.expected_work >= 0.995 *. exact.Exact.expected_work)

let test_single_period_life_function () =
  (* Tiny lifespan relative to c: only one short period makes sense. *)
  let lf = Families.uniform ~lifespan:4.0 in
  let o = Optimizer.optimal_schedule lf ~c:1.0 in
  Alcotest.(check bool) "few periods" true (o.Optimizer.m <= 3);
  Alcotest.(check bool) "positive work" true (o.Optimizer.expected_work > 0.0)

let test_resulting_schedule_matches_reported_e () =
  let lf = Families.polynomial ~d:2 ~lifespan:50.0 in
  let o = Optimizer.optimal_schedule lf ~c:1.0 in
  Alcotest.(check (float 1e-9)) "E consistent" o.Optimizer.expected_work
    (Schedule.expected_work ~c:1.0 lf o.Optimizer.schedule)

(* Proposition 2.1's normal form: every period but the last exceeds c. *)
let productive ~c s =
  let n = Schedule.num_periods s in
  n > 0
  && List.for_all (fun i -> Schedule.period s i > c) (List.init (n - 1) Fun.id)

let test_schedule_is_productive () =
  let lf = Families.geometric_increasing ~lifespan:25.0 in
  let o = Optimizer.optimal_schedule lf ~c:1.0 in
  Alcotest.(check bool) "productive normal form" true
    (productive ~c:1.0 o.Optimizer.schedule)

let test_m_max_cap_respected () =
  let lf = Families.uniform ~lifespan:100.0 in
  let o = Optimizer.optimal_schedule ~m_max:3 lf ~c:1.0 in
  Alcotest.(check bool) "m <= 3" true (o.Optimizer.m <= 3)

let test_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  (match Optimizer.optimal_schedule lf ~c:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 accepted");
  match Optimizer.optimal_schedule lf ~c:20.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c >= horizon accepted"

let test_expected_work_of_vector_semantics () =
  let lf = Families.uniform ~lifespan:10.0 in
  (* Vector with a nonpositive entry: consumes no time, contributes no
     work (it is clamped to 0). *)
  let e1 = Optimizer.expected_work_of_vector lf ~c:1.0 [| 4.0; -1.0; 3.0 |] in
  let e2 = Optimizer.expected_work_of_vector lf ~c:1.0 [| 4.0; 3.0 |] in
  Alcotest.(check (float 1e-12)) "clamped entry is neutral" e2 e1

let test_expected_work_of_vector_matches_schedule () =
  let lf = Families.uniform ~lifespan:10.0 in
  let ts = [| 4.0; 3.0; 1.5 |] in
  Alcotest.(check (float 1e-12)) "vector E = schedule E"
    (Schedule.expected_work ~c:1.0 lf (Schedule.of_periods ts))
    (Optimizer.expected_work_of_vector lf ~c:1.0 ts)

let test_optimum_satisfies_recurrence () =
  (* Theorem 3.1: the independently-found optimum obeys eq. 3.6. *)
  let lf = Families.geometric_increasing ~lifespan:30.0 in
  let o = Optimizer.optimal_schedule lf ~c:1.0 in
  let res = Recurrence.residuals lf ~c:1.0 o.Optimizer.schedule in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "residual small" true (Float.abs r < 1e-3))
    res

let prop_optimizer_never_below_guideline_minus_noise =
  QCheck.Test.make
    ~name:"optimizer E >= guideline E - small noise (it searches a superset)"
    ~count:6
    QCheck.(pair (float_range 0.5 2.0) (float_range 20.0 80.0))
    (fun (c, l) ->
      let lf = Families.polynomial ~d:2 ~lifespan:l in
      let g = Guideline.plan lf ~c in
      let o = Optimizer.optimal_schedule lf ~c in
      o.Optimizer.expected_work >= (0.999 *. g.Guideline.expected_work) -. 1e-9)

let () =
  Alcotest.run "optimizer"
    [
      ( "optimizer",
        [
          Alcotest.test_case "matches exact uniform" `Quick
            test_matches_exact_uniform;
          Alcotest.test_case "tiny lifespan" `Quick
            test_single_period_life_function;
          Alcotest.test_case "reported E consistent" `Quick
            test_resulting_schedule_matches_reported_e;
          Alcotest.test_case "productive result" `Quick
            test_schedule_is_productive;
          Alcotest.test_case "m_max cap" `Quick test_m_max_cap_respected;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "vector semantics" `Quick
            test_expected_work_of_vector_semantics;
          Alcotest.test_case "vector matches schedule" `Quick
            test_expected_work_of_vector_matches_schedule;
          Alcotest.test_case "optimum satisfies eq 3.6" `Quick
            test_optimum_satisfies_recurrence;
          QCheck_alcotest.to_alcotest
            prop_optimizer_never_below_guideline_minus_noise;
        ] );
    ]
