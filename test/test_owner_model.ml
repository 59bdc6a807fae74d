let g () = Prng.create ~seed:42L

let test_samples_positive () =
  let rng = g () in
  List.iter
    (fun model ->
      for _ = 1 to 1000 do
        let d = Owner_model.sample model rng in
        if d <= 0.0 then Alcotest.failf "nonpositive sample %g" d
      done)
    [
      Owner_model.Exponential_absence { mean = 10.0 };
      Owner_model.Uniform_absence { max = 20.0 };
      Owner_model.Weibull_absence { shape = 2.0; scale = 10.0 };
      Owner_model.Coffee_break { typical = 5.0; spread = 2.0 };
      Owner_model.Day_night
        { short_mean = 5.0; long_mean = 100.0; long_fraction = 0.3 };
    ]

let test_exponential_mean () =
  let rng = g () in
  let n = 100_000 in
  let xs =
    Array.init n (fun _ ->
        Owner_model.sample (Owner_model.Exponential_absence { mean = 7.0 }) rng)
  in
  Alcotest.(check (float 0.15)) "mean" 7.0 (Stats.mean xs)

let test_uniform_bounded () =
  let rng = g () in
  for _ = 1 to 10_000 do
    let d = Owner_model.sample (Owner_model.Uniform_absence { max = 3.0 }) rng in
    if d > 3.0 then Alcotest.failf "sample %g beyond max" d
  done

let test_coffee_break_concentrated () =
  let rng = g () in
  let n = 50_000 in
  let xs =
    Array.init n (fun _ ->
        Owner_model.sample
          (Owner_model.Coffee_break { typical = 10.0; spread = 2.0 })
          rng)
  in
  let mu = Stats.mean xs in
  Alcotest.(check (float 0.2)) "mean near typical" 10.0 mu;
  let stddev = sqrt (Stats.mean (Array.map (fun x -> (x -. mu) *. (x -. mu)) xs)) in
  Alcotest.(check bool) "stddev near spread" true (Float.abs (stddev -. 2.0) < 0.3)

let test_day_night_bimodal_mean () =
  let rng = g () in
  let n = 100_000 in
  let model =
    Owner_model.Day_night { short_mean = 5.0; long_mean = 100.0; long_fraction = 0.25 }
  in
  let xs = Array.init n (fun _ -> Owner_model.sample model rng) in
  (* mean = 0.75*5 + 0.25*100 = 28.75 *)
  Alcotest.(check (float 1.0)) "mixture mean" 28.75 (Stats.mean xs)

let test_collect_censoring () =
  let rng = g () in
  let obs =
    Owner_model.collect ~censor_at:5.0
      (Owner_model.Exponential_absence { mean = 5.0 })
      rng ~n:10_000
  in
  Alcotest.(check int) "count" 10_000 (Array.length obs);
  let censored =
    Array.fold_left
      (fun acc o -> if o.Owner_model.observed then acc else acc + 1)
      0 obs
  in
  (* Pr(X > 5) = e^{-1} ~ 0.368 for Exp(mean 5). *)
  let fraction = float_of_int censored /. 10_000.0 in
  Alcotest.(check (float 0.02)) "censored fraction" (exp (-1.0)) fraction;
  Array.iter
    (fun o ->
      if not o.Owner_model.observed then
        Alcotest.(check (float 0.0)) "censored at limit" 5.0
          o.Owner_model.duration
      else if o.Owner_model.duration > 5.0 then
        Alcotest.fail "observed duration beyond censor limit")
    obs

let test_collect_validation () =
  let rng = g () in
  match
    Owner_model.collect (Owner_model.Uniform_absence { max = 1.0 }) rng ~n:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted"

let test_true_life_functions () =
  (match Owner_model.true_life_function (Owner_model.Exponential_absence { mean = 4.0 }) with
  | Some lf ->
      Alcotest.(check (float 1e-9)) "exp survival" (exp (-0.5))
        (Life_function.eval lf 2.0)
  | None -> Alcotest.fail "expected exponential truth");
  (match Owner_model.true_life_function (Owner_model.Uniform_absence { max = 8.0 }) with
  | Some lf ->
      Alcotest.(check (float 1e-9)) "uniform survival" 0.75
        (Life_function.eval lf 2.0)
  | None -> Alcotest.fail "expected uniform truth");
  Alcotest.(check bool) "mixtures have no closed truth" true
    (Owner_model.true_life_function
       (Owner_model.Day_night { short_mean = 1.0; long_mean = 2.0; long_fraction = 0.5 })
    = None)

let test_sample_validation () =
  let rng = g () in
  (match Owner_model.sample (Owner_model.Exponential_absence { mean = 0.0 }) rng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mean = 0 accepted");
  (match
     Owner_model.sample
       (Owner_model.Day_night { short_mean = 1.0; long_mean = 2.0; long_fraction = 1.5 })
       rng
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fraction > 1 accepted");
  (* NaN passes an [x <= 0] guard: the uniform and coffee-break draws
     then resample forever, since no NaN draw is > 0. *)
  List.iter
    (fun (name, model) ->
      match Owner_model.sample model rng with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s with a NaN parameter accepted" name)
    Owner_model.
      [
        ("exponential", Exponential_absence { mean = Float.nan });
        ("uniform", Uniform_absence { max = Float.nan });
        ("weibull", Weibull_absence { shape = 2.0; scale = Float.nan });
        ("coffee", Coffee_break { typical = Float.nan; spread = 1.0 });
        ( "day-night",
          Day_night
            { short_mean = 1.0; long_mean = 2.0; long_fraction = Float.nan } );
      ]

let prop_empirical_survival_matches_truth =
  QCheck.Test.make
    ~name:"empirical survival of samples matches the declared truth" ~count:10
    QCheck.(float_range 2.0 20.0)
    (fun mean ->
      let model = Owner_model.Exponential_absence { mean } in
      match Owner_model.true_life_function model with
      | None -> false
      | Some truth ->
          let rng = Prng.create ~seed:123L in
          let n = 20_000 in
          let xs = Array.init n (fun _ -> Owner_model.sample model rng) in
          let t = mean in
          let emp =
            float_of_int
              (Array.fold_left (fun a x -> if x > t then a + 1 else a) 0 xs)
            /. float_of_int n
          in
          Float.abs (emp -. Life_function.eval truth t) < 0.02)

let () =
  Alcotest.run "owner_model"
    [
      ( "owner_model",
        [
          Alcotest.test_case "samples positive" `Quick test_samples_positive;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "uniform bounded" `Quick test_uniform_bounded;
          Alcotest.test_case "coffee break concentrated" `Quick
            test_coffee_break_concentrated;
          Alcotest.test_case "day-night mean" `Quick test_day_night_bimodal_mean;
          Alcotest.test_case "censoring" `Quick test_collect_censoring;
          Alcotest.test_case "collect validation" `Quick test_collect_validation;
          Alcotest.test_case "true life functions" `Quick
            test_true_life_functions;
          Alcotest.test_case "sample validation" `Quick test_sample_validation;
          QCheck_alcotest.to_alcotest prop_empirical_survival_matches_truth;
        ] );
    ]
