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

(* An uninstrumented trial settles into its chunk's one float-only
   settlement and is counted by its completed periods: it builds no
   outcome record and stores into no per-trial array. What it allocates
   is its boxed draw, its overhead and lost work boxed into [Kahan.add],
   and the overhead total [Episode.settle] reads back from [Kahan]:
   ~10.6 minor words per trial on the 198-period schedule. A trial that
   built an outcome and stored its work for a two-pass summary took ~21,
   one that re-summed its completed periods ~58, and one that copied
   both schedule arrays would take ~480. *)
let test_mc_allocation_per_trial () =
  let _, lf, t0, _ = List.nth pinned_schedules 2 in
  let schedule = pinned_schedule lf ~t0 in
  let trials = 20_000 in
  let before = Gc.minor_words () in
  ignore
    (Sys.opaque_identity
       (Monte_carlo.estimate ~trials lf ~c ~schedule ~seed:1L));
  let per_trial = (Gc.minor_words () -. before) /. float_of_int trials in
  if per_trial > 12.0 then
    Alcotest.failf "%.1f minor words per trial" per_trial

(* A Kaplan–Meier fit of 1,000 censored day/night absences: a p with no
   closed form, planned on the grid. *)
let fitted_life =
  lazy
    (Owner_model.collect ~censor_at:960.0
       (Owner_model.Day_night
          { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 })
       (Prng.create ~seed:4L) ~n:1000
    |> Survival.of_observations)
      .Survival.life

(* The three pinned schedules with their p, and the fit with its plan. *)
let scenarios () =
  List.map
    (fun (name, lf, t0, _) -> (name, lf, pinned_schedule lf ~t0))
    pinned_schedules
  @
  let lf = Lazy.force fitted_life in
  [ ("fit", lf, (Guideline.plan lf ~c).Guideline.schedule) ]

let bits = Int64.bits_of_float

(* The distance in ulps between two finite floats of the same sign. *)
let ulps a b = Int64.abs (Int64.sub (bits a) (bits b))

(* A handle that passes every event to [on_event] and records spans, as
   [csctl simulate --trace] does. *)
let tracing on_event =
  Obs.create ~sink:(Obs.Sink.Custom on_event) ~spans:(Obs.Span.create ()) ()

(* An untraced trial is settled in place and folded into its chunk's
   tally; a traced one is played and emits its events. Both must give
   the same record: every float compared as bits. *)
let test_traced_equals_untraced () =
  let estimate_bits (e : Monte_carlo.estimate) =
    let lo, hi = e.Monte_carlo.ci95 in
    ( e.Monte_carlo.trials,
      Array.map bits
        [|
          e.Monte_carlo.mean_work; lo; hi; e.Monte_carlo.mean_overhead;
          e.Monte_carlo.mean_lost; e.Monte_carlo.interrupted_fraction;
          e.Monte_carlo.analytic;
        |],
      e.Monte_carlo.completed )
  in
  let runs_bits =
    List.map (fun r ->
        ( r.Monte_carlo.policy_name,
          bits r.Monte_carlo.mean_work_per_episode,
          r.Monte_carlo.episodes ))
  in
  List.iter
    (fun (name, lf, schedule) ->
      let events = ref 0 in
      let obs = tracing (fun _ -> incr events) in
      let plain = Monte_carlo.estimate ~trials:3000 lf ~c ~schedule ~seed:42L in
      let traced =
        Monte_carlo.estimate ~obs ~trials:3000 lf ~c ~schedule ~seed:42L
      in
      if estimate_bits plain <> estimate_bits traced then
        Alcotest.failf "%s: the traced estimate differs" name;
      let policies =
        [
          ("plan", schedule);
          ("single", (Baselines.single_period lf ~c).Baselines.schedule);
        ]
      in
      let plain =
        Monte_carlo.compare_policies ~trials:3000 lf ~c ~policies ~seed:42L
      in
      let traced =
        Monte_carlo.compare_policies ~obs ~trials:3000 lf ~c ~policies
          ~seed:42L
      in
      if runs_bits plain <> runs_bits traced then
        Alcotest.failf "%s: the traced comparison differs" name;
      if !events = 0 then Alcotest.failf "%s: nothing was traced" name)
    (scenarios ())

(* The two-pass sample mean and unbiased variance that [estimate] took
   over a per-trial array of banked work before it counted trials by
   completed periods: the oracle its mean and CI are checked against. *)
let two_pass xs =
  let n = float_of_int (Array.length xs) in
  let mean = Kahan.sum xs /. n in
  let acc = Kahan.create () in
  Array.iter
    (fun x ->
      let d = x -. mean in
      Kahan.add acc (d *. d))
    xs;
  (mean, Kahan.total acc /. (n -. 1.0))

(* The normal-approximation 95% CI of the population mean. *)
let two_pass_ci95 xs =
  let mean, variance = two_pass xs in
  let se = sqrt variance /. sqrt (float_of_int (Array.length xs)) in
  (mean -. (1.96 *. se), mean +. (1.96 *. se))

let test_two_pass_oracle () =
  let mean, variance = two_pass [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-12)) "mean" 5.0 mean;
  (* The squared deviations sum to 32, over n - 1 = 7. *)
  Alcotest.(check (float 1e-12)) "variance" (32.0 /. 7.0) variance;
  (* For [0; 2], stddev = sqrt 2 and se = 1: the CI is 1 ± 1.96. *)
  let lo, hi = two_pass_ci95 [| 0.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "lo" (1.0 -. 1.96) lo;
  Alcotest.(check (float 1e-12)) "hi" (1.0 +. 1.96) hi

(* The tally's mean and CI against the two-pass oracle over the same
   trials' banked work, which a traced run's [Episode_finished] events
   carry in trial order. *)
let test_mean_and_ci_match_two_pass () =
  let trials = 5000 in
  List.iter
    (fun (name, lf, schedule) ->
      let works = ref [] in
      let obs =
        tracing (function
          | Obs.Event.Episode_finished { work_done; _ } ->
              works := work_done :: !works
          | _ -> ())
      in
      ignore (Monte_carlo.estimate ~obs ~trials lf ~c ~schedule ~seed:42L);
      let xs = Array.of_list (List.rev !works) in
      Alcotest.(check int) (name ^ " trials") trials (Array.length xs);
      let e = Monte_carlo.estimate ~trials lf ~c ~schedule ~seed:42L in
      let mean, _ = two_pass xs and lo, hi = two_pass_ci95 xs in
      let elo, ehi = e.Monte_carlo.ci95 in
      let worst =
        List.fold_left Int64.max 0L
          [ ulps mean e.Monte_carlo.mean_work; ulps lo elo; ulps hi ehi ]
      in
      if worst > 4L then
        Alcotest.failf "%s: %Ld ulps from the two-pass oracle" name worst)
    (scenarios ())

(* Eq. 2.1 per period: a trial completes exactly k < n periods when
   T_{k-1} <= R < T_k, with probability p(T_{k-1}) - p(T_k) (and
   p(T_{-1}) = 1), and all n with probability p(T_{n-1}). Each slot
   expected to hold at least 5 trials lies within 5 binomial standard
   errors of its expectation. The slots expected to hold fewer are
   pooled, and the pool must too: a lone trial in a slot expected to
   hold 0.0005 trials is 46 standard errors out on its own. A slot of
   probability 0 holds no trial. *)
let test_completed_counts_fit_the_law () =
  let trials = 20_000 in
  let tf = float_of_int trials in
  let within m q =
    Float.abs (float_of_int m -. (tf *. q))
    <= 5.0 *. sqrt (tf *. q *. (1.0 -. q))
  in
  List.iter
    (fun (name, lf, schedule) ->
      let e = Monte_carlo.estimate ~trials lf ~c ~schedule ~seed:42L in
      let completed = e.Monte_carlo.completed in
      let ends = schedule.Schedule.ends in
      let n = Array.length ends in
      Alcotest.(check int) (name ^ " slots") (n + 1) (Array.length completed);
      let p k = if k < 0 then 1.0 else Life_function.eval lf ends.(k) in
      let pool_q = ref 0.0 and pool_m = ref 0 in
      for k = 0 to n do
        let q = if k = n then p (n - 1) else p (k - 1) -. p k in
        let m = completed.(k) in
        if q = 0.0 && m > 0 then
          Alcotest.failf "%s: %d trials in slot %d, of probability 0" name m k
        else if tf *. q >= 5.0 then begin
          if not (within m q) then
            Alcotest.failf "%s: slot %d holds %d trials, %.1f expected" name
              k m (tf *. q)
        end
        else begin
          pool_q := !pool_q +. q;
          pool_m := !pool_m + m
        end
      done;
      if not (within !pool_m !pool_q) then
        Alcotest.failf "%s: the sparse slots hold %d trials, %.1f expected"
          name !pool_m (tf *. !pool_q);
      Alcotest.(check int) (name ^ " slots sum to trials") trials
        (Array.fold_left ( + ) 0 completed);
      Alcotest.(check (float 1e-9)) (name ^ " slot n = uninterrupted trials")
        (tf *. (1.0 -. e.Monte_carlo.interrupted_fraction))
        (float_of_int completed.(n)))
    (scenarios ())

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
          Alcotest.test_case "traced = untraced, bitwise" `Quick
            test_traced_equals_untraced;
          Alcotest.test_case "two-pass oracle" `Quick test_two_pass_oracle;
          Alcotest.test_case "mean and CI = two-pass oracle" `Quick
            test_mean_and_ci_match_two_pass;
          Alcotest.test_case "completed counts fit eq. 2.1" `Quick
            test_completed_counts_fit_the_law;
        ] );
    ]
