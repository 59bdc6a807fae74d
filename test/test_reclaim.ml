let test_draws_within_support () =
  let lf = Families.uniform ~lifespan:50.0 in
  let s = Reclaim.create lf in
  let g = Prng.create ~seed:1L in
  for _ = 1 to 5000 do
    let t = Reclaim.draw s g in
    if t < 0.0 || t > 50.0 then Alcotest.failf "draw %g outside [0, 50]" t
  done

let test_uniform_draw_distribution () =
  (* Uniform life function => reclaim time uniform on [0, L]. *)
  let l = 10.0 in
  let lf = Families.uniform ~lifespan:l in
  let s = Reclaim.create lf in
  let g = Prng.create ~seed:2L in
  let n = 100_000 in
  let draws = Array.init n (fun _ -> Reclaim.draw s g) in
  Alcotest.(check (float 0.05)) "mean L/2" 5.0 (Stats.mean draws);
  Alcotest.(check (float 0.05)) "median L/2" 5.0 (Stats.quantile draws ~q:0.5);
  Alcotest.(check (float 0.05)) "q25" 2.5 (Stats.quantile draws ~q:0.25)

let test_exponential_draw_distribution () =
  let rate = 0.5 in
  let lf = Families.exponential ~rate in
  let s = Reclaim.create lf in
  let g = Prng.create ~seed:3L in
  let n = 100_000 in
  let draws = Array.init n (fun _ -> Reclaim.draw s g) in
  Alcotest.(check (float 0.05)) "mean 1/rate" 2.0 (Stats.mean draws);
  Alcotest.(check (float 0.05)) "median ln2/rate" (log 2.0 /. rate)
    (Stats.quantile draws ~q:0.5)

let test_survival_identity () =
  (* Empirical Pr(T > t) must match p(t) at several probes. *)
  let lf = Families.geometric_increasing ~lifespan:20.0 in
  let s = Reclaim.create lf in
  let g = Prng.create ~seed:4L in
  let n = 200_000 in
  let draws = Array.init n (fun _ -> Reclaim.draw s g) in
  List.iter
    (fun t ->
      let surv =
        float_of_int (Array.fold_left (fun acc d -> if d > t then acc + 1 else acc) 0 draws)
        /. float_of_int n
      in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "p(%g)" t)
        (Life_function.eval lf t) surv)
    [ 2.0; 8.0; 15.0; 19.0 ]

(* The reference sampler: inverts p by bisection per draw, independently
   of [Life_function.inverse]. *)
let draw_exact lf g =
  let u = Prng.float g in
  let horizon = Life_function.horizon lf in
  if Life_function.eval lf horizon >= u then horizon
  else
    let f t = Life_function.eval lf t -. u in
    (Rootfind.bisect f ~lo:0.0 ~hi:horizon).Rootfind.root

(* [draws_match_exact kind lf] checks 2000 draws from [Reclaim.create lf]
   against [draw_exact] on the same uniforms. *)
let draws_match_exact kind lf =
  let sampler = Reclaim.create lf in
  let tol = 1e-9 *. Float.max 1.0 (Life_function.horizon lf) in
  let g1 = Prng.create ~seed:12L and g2 = Prng.create ~seed:12L in
  for _ = 1 to 2000 do
    let a = Reclaim.draw sampler g1 and b = draw_exact lf g2 in
    if Float.abs (a -. b) > tol then
      Alcotest.failf "%s: %s %.12g vs bisection %.12g" (Life_function.name lf)
        kind a b
  done

let test_fitted_draws_match_exact () =
  (* Trace fits of the owner models the e2e simulate workload samples:
     the exact inverse of each fitted interpolant. *)
  let g = Prng.create ~seed:5L in
  List.iter
    (fun (model, censor_at) ->
      let obs = Owner_model.collect ~censor_at model g ~n:1000 in
      draws_match_exact "fitted inverse" (Survival.of_observations obs).Survival.life)
    [
      ( Owner_model.Day_night
          { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 },
        960.0 );
      ( Owner_model.Day_night
          { short_mean = 10.0; long_mean = 240.0; long_fraction = 0.25 },
        720.0 );
      (Owner_model.Coffee_break { typical = 10.0; spread = 3.0 }, 60.0);
      (Owner_model.Coffee_break { typical = 20.0; spread = 5.0 }, 90.0);
    ]

let test_closed_form_draws_match_exact () =
  (* With an exact inverse the sampler is as accurate as bisection. *)
  List.iter (draws_match_exact "closed form")
    [
      Families.uniform ~lifespan:50.0;
      Families.polynomial ~d:2 ~lifespan:30.0;
      Families.geometric_decreasing ~a:(exp 0.05);
      Families.exponential ~rate:0.5;
      Families.geometric_increasing ~lifespan:20.0;
      Families.weibull ~shape:0.8 ~scale:60.0;
    ]

let test_mean_of_draws_matches_mean_lifetime () =
  let lf = Families.uniform ~lifespan:40.0 in
  let s = Reclaim.create lf in
  let g = Prng.create ~seed:6L in
  let m = Stats.mean (Array.init 100_000 (fun _ -> Reclaim.draw s g)) in
  Alcotest.(check (float 0.2)) "mean lifetime" (Life_function.mean_lifetime lf) m

let test_determinism () =
  let lf = Families.exponential ~rate:1.0 in
  let s = Reclaim.create lf in
  let draws seed =
    let g = Prng.create ~seed in
    Array.init 100 (fun _ -> Reclaim.draw s g)
  in
  Alcotest.(check bool) "same seed same draws" true (draws 9L = draws 9L)

let prop_draws_match_quantiles =
  QCheck.Test.make ~name:"empirical quantiles track quantile_time" ~count:10
    QCheck.(float_range 10.0 80.0)
    (fun l ->
      let lf = Families.uniform ~lifespan:l in
      let s = Reclaim.create lf in
      let g = Prng.create ~seed:11L in
      let draws = Array.init 20_000 (fun _ -> Reclaim.draw s g) in
      let q30_expected = Life_function.quantile_time lf ~q:0.7 in
      Float.abs (Stats.quantile draws ~q:0.3 -. q30_expected) /. l < 0.02)

let () =
  Alcotest.run "reclaim"
    [
      ( "reclaim",
        [
          Alcotest.test_case "draws within support" `Quick
            test_draws_within_support;
          Alcotest.test_case "uniform distribution" `Quick
            test_uniform_draw_distribution;
          Alcotest.test_case "exponential distribution" `Quick
            test_exponential_draw_distribution;
          Alcotest.test_case "survival identity" `Quick test_survival_identity;
          Alcotest.test_case "fitted = exact" `Quick
            test_fitted_draws_match_exact;
          Alcotest.test_case "closed form = exact" `Quick
            test_closed_form_draws_match_exact;
          Alcotest.test_case "mean of draws" `Quick
            test_mean_of_draws_matches_mean_lifetime;
          Alcotest.test_case "determinism" `Quick test_determinism;
          QCheck_alcotest.to_alcotest prop_draws_match_quantiles;
        ] );
    ]
