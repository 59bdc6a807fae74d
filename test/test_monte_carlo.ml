let c = 1.0

let test_mc_matches_analytic_uniform () =
  let lf = Families.uniform ~lifespan:100.0 in
  let g = Guideline.plan lf ~c in
  let est =
    Monte_carlo.estimate ~trials:40_000 lf ~c ~schedule:g.Guideline.schedule
      ~seed:42L
  in
  let lo, hi = est.Monte_carlo.ci95 in
  Alcotest.(check bool) "analytic E inside MC 95% CI (slightly widened)" true
    (est.Monte_carlo.analytic >= lo -. (0.3 *. (hi -. lo))
    && est.Monte_carlo.analytic <= hi +. (0.3 *. (hi -. lo)))

let test_mc_matches_analytic_geo_dec () =
  let lf = Families.geometric_decreasing ~a:(exp 0.05) in
  let exact = Exact.geometric_decreasing ~c ~a:(exp 0.05) in
  let est =
    Monte_carlo.estimate ~trials:40_000 lf ~c ~schedule:exact.Exact.schedule
      ~seed:7L
  in
  Alcotest.(check bool) "relative gap < 2%" true
    (Float.abs (est.Monte_carlo.mean_work -. est.Monte_carlo.analytic)
    < 0.02 *. est.Monte_carlo.analytic)

let test_mc_matches_analytic_geo_inc () =
  let lf = Families.geometric_increasing ~lifespan:30.0 in
  let g = Guideline.plan lf ~c in
  let est =
    Monte_carlo.estimate ~trials:40_000 lf ~c ~schedule:g.Guideline.schedule
      ~seed:13L
  in
  Alcotest.(check bool) "relative gap < 2%" true
    (Float.abs (est.Monte_carlo.mean_work -. est.Monte_carlo.analytic)
    < 0.02 *. Float.max 1.0 est.Monte_carlo.analytic)

let test_mc_deterministic_in_seed () =
  let lf = Families.uniform ~lifespan:50.0 in
  let s = Schedule.of_list [ 10.0; 8.0 ] in
  let e1 = Monte_carlo.estimate ~trials:1000 lf ~c ~schedule:s ~seed:5L in
  let e2 = Monte_carlo.estimate ~trials:1000 lf ~c ~schedule:s ~seed:5L in
  Alcotest.(check (float 0.0)) "same mean" e1.Monte_carlo.mean_work
    e2.Monte_carlo.mean_work

let test_mc_interrupted_fraction () =
  (* Single period spanning the whole lifespan: interrupted with
     probability 1 under uniform risk (reclaim < L a.s.). *)
  let lf = Families.uniform ~lifespan:50.0 in
  let s = Schedule.of_list [ 49.99 ] in
  let est = Monte_carlo.estimate ~trials:5000 lf ~c ~schedule:s ~seed:3L in
  Alcotest.(check bool) "almost always interrupted" true
    (est.Monte_carlo.interrupted_fraction > 0.99)

let test_mc_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  let s = Schedule.of_list [ 1.0 ] in
  match Monte_carlo.estimate ~trials:1 lf ~c ~schedule:s ~seed:1L with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "trials = 1 accepted"

let test_compare_policies_ranking () =
  (* Guideline should outrank the single period under common random
     numbers, matching the analytic ordering. *)
  let lf = Families.uniform ~lifespan:100.0 in
  let g = Guideline.plan lf ~c in
  let naive = Baselines.single_period lf ~c in
  let runs =
    Monte_carlo.compare_policies ~trials:5000 lf ~c
      ~policies:
        [
          ("guideline", g.Guideline.schedule);
          ("single", naive.Baselines.schedule);
        ]
      ~seed:17L
  in
  (match runs with
  | first :: _ ->
      Alcotest.(check string) "guideline first" "guideline"
        first.Monte_carlo.policy_name
  | [] -> Alcotest.fail "no runs");
  List.iter
    (fun r -> Alcotest.(check int) "episodes" 5000 r.Monte_carlo.episodes)
    runs

let test_compare_policies_common_randoms () =
  (* The same policy listed twice must get the exact same mean (CRN). *)
  let lf = Families.uniform ~lifespan:100.0 in
  let s = Schedule.of_list [ 20.0; 10.0 ] in
  match
    Monte_carlo.compare_policies ~trials:2000 lf ~c
      ~policies:[ ("a", s); ("b", s) ]
      ~seed:23L
  with
  | [ r1; r2 ] ->
      Alcotest.(check (float 0.0)) "identical means"
        r1.Monte_carlo.mean_work_per_episode r2.Monte_carlo.mean_work_per_episode
  | _ -> Alcotest.fail "expected two runs"

(* Three schedules of 13, 92 and 198 periods, generated from fixed t0 so
   that a change to the t0 search cannot move them. *)
let pinned_schedules =
  [
    ("uniform", Families.uniform ~lifespan:100.0, 0x1.b492494d1a1bep+3, 13);
    ("exponential", Families.exponential ~rate:0.03, 0x1.10653d04f1254p+3, 92);
    ( "weibull",
      Families.weibull ~shape:0.8 ~scale:60.0,
      0x1.4f1fa2ef94c3ap+3,
      198 );
  ]

let pinned_schedule lf ~t0 = (Recurrence.generate lf ~c ~t0).Recurrence.schedule

(* Known answers, bit for bit: mean work, both CI ends, mean overhead and
   mean lost work of a 5,000-trial estimate. They pin the whole trial path
   (Prng streams, reclaim draws, episode accounting, chunk merge), which
   the statistical checks above would let drift. *)
let test_mc_known_answers () =
  let expected =
    [
      ( "uniform",
        [|
          4630986331391955005L; 4630880492943019037L; 4631092169840890973L;
          4617506712407940308L; 4615692861836943350L;
        |] );
      ( "exponential",
        [|
          4628001916675376173L; 4627773420206821032L; 4628230413143931314L;
          4616633676854277905L; 4614288828293604021L;
        |] );
      ( "weibull",
        [|
          4633310358169593586L; 4633005485557661872L; 4633615230781525300L;
          4618418753963134430L; 4617096826249171794L;
        |] );
    ]
  in
  List.iter
    (fun (name, lf, t0, n) ->
      let schedule = pinned_schedule lf ~t0 in
      Alcotest.(check int) (name ^ " periods") n (Schedule.num_periods schedule);
      let e = Monte_carlo.estimate ~trials:5000 lf ~c ~schedule ~seed:42L in
      let lo, hi = e.Monte_carlo.ci95 in
      Alcotest.(check (array int64)) name (List.assoc name expected)
        (Array.map Int64.bits_of_float
           [|
             e.Monte_carlo.mean_work; lo; hi; e.Monte_carlo.mean_overhead;
             e.Monte_carlo.mean_lost;
           |]))
    pinned_schedules

(* A trial copies no schedule array, boxes nothing in the generator and
   re-sums no completed period: it plays the schedule's one replay table.
   ~21 minor words per trial on the 198-period schedule (~58 when every
   trial re-summed its completed periods), where a trial that copied both
   arrays would allocate ~480. *)
let test_mc_allocation_per_trial () =
  let _, lf, t0, _ = List.nth pinned_schedules 2 in
  let schedule = pinned_schedule lf ~t0 in
  let trials = 20_000 in
  let before = Gc.minor_words () in
  ignore
    (Sys.opaque_identity
       (Monte_carlo.estimate ~trials lf ~c ~schedule ~seed:1L));
  let per_trial = (Gc.minor_words () -. before) /. float_of_int trials in
  if per_trial > 30.0 then
    Alcotest.failf "%.1f minor words per trial" per_trial

let prop_mc_within_5_sigma =
  QCheck.Test.make ~name:"MC mean within 5 standard errors of analytic E"
    ~count:10
    QCheck.(pair (float_range 0.5 2.0) (float_range 30.0 120.0))
    (fun (c, l) ->
      let lf = Families.uniform ~lifespan:l in
      let g = Guideline.plan lf ~c in
      let est =
        Monte_carlo.estimate ~trials:8000 lf ~c ~schedule:g.Guideline.schedule
          ~seed:99L
      in
      let lo, hi = est.Monte_carlo.ci95 in
      let se = (hi -. lo) /. (2.0 *. 1.96) in
      Float.abs (est.Monte_carlo.mean_work -. est.Monte_carlo.analytic)
      < 5.0 *. se)

let () =
  Alcotest.run "monte_carlo"
    [
      ( "monte_carlo",
        [
          Alcotest.test_case "uniform CI covers analytic" `Quick
            test_mc_matches_analytic_uniform;
          Alcotest.test_case "geo-dec matches" `Quick
            test_mc_matches_analytic_geo_dec;
          Alcotest.test_case "geo-inc matches" `Quick
            test_mc_matches_analytic_geo_inc;
          Alcotest.test_case "deterministic in seed" `Quick
            test_mc_deterministic_in_seed;
          Alcotest.test_case "interrupted fraction" `Quick
            test_mc_interrupted_fraction;
          Alcotest.test_case "validation" `Quick test_mc_validation;
          Alcotest.test_case "policy ranking" `Quick
            test_compare_policies_ranking;
          Alcotest.test_case "common random numbers" `Quick
            test_compare_policies_common_randoms;
          QCheck_alcotest.to_alcotest prop_mc_within_5_sigma;
          Alcotest.test_case "known answers" `Quick test_mc_known_answers;
          Alcotest.test_case "allocation per trial" `Quick
            test_mc_allocation_per_trial;
        ] );
    ]
