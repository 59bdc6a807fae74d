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

(* [lf] rebuilt without its inverse, so {!Reclaim.create} tabulates it. *)
let without_inverse lf =
  Life_function.make ~validate:false ~name:(Life_function.name lf)
    ~support:(Life_function.support lf) ~dp:(Life_function.deriv lf)
    ~shape:(Life_function.shape lf) (Life_function.eval lf)

let test_draw_exact_agrees_with_tabulated () =
  (* Same underlying uniform u gives nearly identical inversions. *)
  let lf = Families.polynomial ~d:2 ~lifespan:30.0 in
  let sampler = Reclaim.create (without_inverse lf) in
  let n = 2000 in
  let g1 = Prng.create ~seed:5L in
  let g2 = Prng.create ~seed:5L in
  for _ = 1 to n do
    let a = Reclaim.draw sampler g1 in
    let b = Reclaim.draw_exact lf g2 in
    if Float.abs (a -. b) > 0.01 then
      Alcotest.failf "tabulated %g vs exact %g" a b
  done

let test_closed_form_draws_match_exact () =
  (* With an exact inverse the sampler is as accurate as bisection. On
     these draws the table misses by up to 6.8e-8 on polynomial(d=2,
     L=30), 3.6e-6 on geometric-decreasing and 0.037 on Weibull(0.8, 60). *)
  List.iter
    (fun lf ->
      let sampler = Reclaim.create lf in
      let tol = 1e-9 *. Float.max 1.0 (Life_function.horizon lf) in
      let g1 = Prng.create ~seed:12L and g2 = Prng.create ~seed:12L in
      for _ = 1 to 2000 do
        let a = Reclaim.draw sampler g1 and b = Reclaim.draw_exact lf g2 in
        if Float.abs (a -. b) > tol then
          Alcotest.failf "%s: closed form %.12g vs bisection %.12g"
            (Life_function.name lf) a b
      done)
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
  let m = Reclaim.mean_of_draws s g ~n:100_000 in
  Alcotest.(check (float 0.2)) "mean lifetime" (Life_function.mean_lifetime lf) m

let test_mean_of_draws_validation () =
  let s = Reclaim.create (Families.uniform ~lifespan:1.0) in
  let g = Prng.create ~seed:7L in
  match Reclaim.mean_of_draws s g ~n:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted"

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
          Alcotest.test_case "tabulated = exact" `Quick
            test_draw_exact_agrees_with_tabulated;
          Alcotest.test_case "closed form = exact" `Quick
            test_closed_form_draws_match_exact;
          Alcotest.test_case "mean of draws" `Quick
            test_mean_of_draws_matches_mean_lifetime;
          Alcotest.test_case "mean_of_draws validation" `Quick
            test_mean_of_draws_validation;
          Alcotest.test_case "determinism" `Quick test_determinism;
          QCheck_alcotest.to_alcotest prop_draws_match_quantiles;
        ] );
    ]
