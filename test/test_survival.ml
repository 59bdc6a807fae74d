(* p never rises by more than 1e-9 from one point to the next of a
   256-cell grid over [0, horizon]. *)
let decreasing_on_grid lf =
  let hi = Life_function.horizon lf in
  let at i = Life_function.eval lf (float_of_int i /. 256.0 *. hi) in
  List.for_all (fun i -> at i <= at (i - 1) +. 1e-9) (List.init 256 succ)

let g () = Prng.create ~seed:7L

let test_estimate_is_valid_life_function () =
  let rng = g () in
  let ds =
    Array.init 500 (fun _ ->
        Owner_model.sample (Owner_model.Uniform_absence { max = 20.0 }) rng)
  in
  let e = Survival.of_durations ds in
  Alcotest.(check (float 1e-6)) "p(0) = 1" 1.0
    (Life_function.eval e.Survival.life 0.0);
  Alcotest.(check bool) "monotone" true
    (decreasing_on_grid e.Survival.life);
  Alcotest.(check int) "observed count" 500 e.Survival.n_observed;
  Alcotest.(check int) "no censored" 0 e.Survival.n_censored

let test_estimate_reaches_zero () =
  let rng = g () in
  let ds =
    Array.init 300 (fun _ ->
        Owner_model.sample (Owner_model.Exponential_absence { mean = 5.0 }) rng)
  in
  let e = Survival.of_durations ds in
  match Life_function.support e.Survival.life with
  | Life_function.Bounded l ->
      Alcotest.(check (float 1e-9)) "p(L) = 0" 0.0
        (Life_function.eval e.Survival.life l)
  | Life_function.Unbounded -> Alcotest.fail "expected bounded estimate"

let test_estimate_close_to_truth_uniform () =
  let rng = g () in
  let truth = Families.uniform ~lifespan:20.0 in
  let ds =
    Array.init 4000 (fun _ ->
        Owner_model.sample (Owner_model.Uniform_absence { max = 20.0 }) rng)
  in
  let e = Survival.of_durations ds in
  let rmse = Survival.survival_rmse e ~truth in
  Alcotest.(check bool) (Printf.sprintf "rmse %.4f < 0.03" rmse) true
    (rmse < 0.03)

let test_estimate_close_to_truth_exponential () =
  let rng = g () in
  let truth = Families.exponential ~rate:0.2 in
  let ds =
    Array.init 4000 (fun _ ->
        Owner_model.sample (Owner_model.Exponential_absence { mean = 5.0 }) rng)
  in
  let e = Survival.of_durations ds in
  let rmse = Survival.survival_rmse e ~truth in
  Alcotest.(check bool) (Printf.sprintf "rmse %.4f < 0.03" rmse) true
    (rmse < 0.03)

let test_censored_estimate_unbiased () =
  (* With right-censoring at the 60% point, Kaplan–Meier should still track
     the truth where data exist. *)
  let rng = g () in
  let truth = Families.exponential ~rate:0.2 in
  let obs =
    Owner_model.collect ~censor_at:8.0
      (Owner_model.Exponential_absence { mean = 5.0 })
      rng ~n:4000
  in
  let e = Survival.of_observations obs in
  Alcotest.(check bool) "has censored" true (e.Survival.n_censored > 0);
  (* Compare at a point well inside the observed range. *)
  Alcotest.(check (float 0.03)) "p(4) tracks truth"
    (Life_function.eval truth 4.0)
    (Life_function.eval e.Survival.life 4.0)

let test_schedulable_end_to_end () =
  (* The whole point: an estimated life function must be consumable by the
     guideline scheduler. *)
  let rng = g () in
  let ds =
    Array.init 2000 (fun _ ->
        Owner_model.sample (Owner_model.Uniform_absence { max = 50.0 }) rng)
  in
  let e = Survival.of_durations ds in
  let r = Guideline.plan e.Survival.life ~c:1.0 in
  Alcotest.(check bool) "positive expected work" true
    (r.Guideline.expected_work > 0.0);
  Alcotest.(check bool) "multiple periods" true
    (Schedule.num_periods r.Guideline.schedule > 1)

let test_small_sample () =
  let e = Survival.of_durations [| 3.0; 1.0; 4.0; 1.5; 9.0 |] in
  Alcotest.(check bool) "valid" true
    (decreasing_on_grid e.Survival.life)

let test_ties_handled () =
  let e = Survival.of_durations [| 2.0; 2.0; 2.0; 5.0; 5.0 |] in
  Alcotest.(check bool) "valid with ties" true
    (decreasing_on_grid e.Survival.life)

let test_empty_rejected () =
  match Survival.of_durations [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted"

let test_all_censored_rejected () =
  let obs =
    Array.init 5 (fun _ -> { Owner_model.duration = 1.0; observed = false })
  in
  match Survival.of_observations obs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-censored accepted"

let test_bad_durations_rejected () =
  (* Ten durations with one bad one: a NaN used to hang the estimate, an
     infinity raised Invalid_life_function and a negative was accepted.
     Each is rejected on both paths, fully observed (ECDF) and censored
     (Kaplan–Meier), and by the confidence bands. *)
  List.iter
    (fun bad ->
      let duration i = if i = 4 then bad else float_of_int (i + 1) in
      let obs ~censored =
        Array.init 10 (fun i ->
            {
              Owner_model.duration = duration i;
              observed = not (censored && i = 7);
            })
      in
      let rejects name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s accepted %g" name bad
      in
      rejects "of_durations" (fun () ->
          ignore (Survival.of_durations (Array.init 10 duration)));
      rejects "of_observations (censored)" (fun () ->
          ignore (Survival.of_observations (obs ~censored:true)));
      rejects "confidence_bands" (fun () ->
          ignore (Survival.confidence_bands (obs ~censored:true))))
    [ Float.nan; Float.infinity; -3.0 ]

let test_durations_near_zero_rejected () =
  (* Knots within 1e-12 of the previous one merge, so durations that all
     lie within 1e-12 of 0 leave the knot (0, 1) alone: a clean
     Invalid_argument naming the cause, not Interp's Bad_grid. *)
  let expected name =
    Invalid_argument (name ^ ": every duration lies within 1e-12 of 0")
  in
  List.iter
    (fun ds ->
      Alcotest.check_raises "of_durations"
        (expected "Survival.of_observations") (fun () ->
          ignore (Survival.of_durations ds));
      Alcotest.check_raises "confidence_bands"
        (expected "Survival.confidence_bands") (fun () ->
          ignore
            (Survival.confidence_bands
               (Array.map
                  (fun d -> { Owner_model.duration = d; observed = true })
                  ds))))
    [ [| 0.0; 0.0 |]; [| 1e-13; 2e-13; 5e-13 |] ];
  (* One duration 1e-12 past the others keeps a second knot. *)
  ignore (Survival.of_durations [| 0.0; 2e-12 |])

let test_knots_recorded () =
  let rng = g () in
  let ds =
    Array.init 200 (fun _ ->
        Owner_model.sample (Owner_model.Uniform_absence { max = 10.0 }) rng)
  in
  let e = Survival.of_observations ~knots:16
      (Array.map (fun d -> { Owner_model.duration = d; observed = true }) ds)
  in
  Alcotest.(check bool) "knot budget respected" true
    (Array.length e.Survival.knots <= 16 + 3)

let prop_estimates_always_schedulable =
  QCheck.Test.make ~name:"every estimate is a schedulable life function"
    ~count:15
    QCheck.(pair (int_range 20 500) (float_range 5.0 50.0))
    (fun (n, max) ->
      let rng = Prng.create ~seed:(Int64.of_int (n * 31)) in
      let ds =
        Array.init n (fun _ ->
            Owner_model.sample (Owner_model.Uniform_absence { max }) rng)
      in
      let e = Survival.of_durations ds in
      let horizon = Life_function.horizon e.Survival.life in
      let c = 0.02 *. horizon in
      let r = Guideline.plan e.Survival.life ~c in
      r.Guideline.expected_work >= 0.0)

let () =
  Alcotest.run "survival"
    [
      ( "survival",
        [
          Alcotest.test_case "valid life function" `Quick
            test_estimate_is_valid_life_function;
          Alcotest.test_case "reaches zero" `Quick test_estimate_reaches_zero;
          Alcotest.test_case "tracks uniform truth" `Quick
            test_estimate_close_to_truth_uniform;
          Alcotest.test_case "tracks exponential truth" `Quick
            test_estimate_close_to_truth_exponential;
          Alcotest.test_case "censored unbiased" `Quick
            test_censored_estimate_unbiased;
          Alcotest.test_case "schedulable end-to-end" `Quick
            test_schedulable_end_to_end;
          Alcotest.test_case "small sample" `Quick test_small_sample;
          Alcotest.test_case "ties" `Quick test_ties_handled;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "all censored rejected" `Quick
            test_all_censored_rejected;
          Alcotest.test_case "knot budget" `Quick test_knots_recorded;
          Alcotest.test_case "bad durations rejected" `Quick
            test_bad_durations_rejected;
          Alcotest.test_case "durations near 0 rejected" `Quick
            test_durations_near_zero_rejected;
          QCheck_alcotest.to_alcotest prop_estimates_always_schedulable;
        ] );
    ]
