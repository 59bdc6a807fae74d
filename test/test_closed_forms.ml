let feq ?(eps = 1e-9) a b = Alcotest.(check (float eps)) "value" a b

(* --- §4.1 polynomial / uniform ---------------------------------------- *)

let test_poly_t0_bounds_scaling () =
  (* (c/d)^{1/(d+1)} L^{d/(d+1)} for c=1, d=2, L=1000: (1/2)^{1/3} * 100. *)
  feq ~eps:1e-9
    (Float.pow 0.5 (1.0 /. 3.0) *. 100.0)
    (Closed_forms.poly_t0_lower ~d:2 ~c:1.0 ~lifespan:1000.0);
  feq ~eps:1e-9
    ((2.0 *. Float.pow 0.5 (1.0 /. 3.0) *. 100.0) +. 1.0)
    (Closed_forms.poly_t0_upper ~d:2 ~c:1.0 ~lifespan:1000.0)

let test_uniform_t0_forms () =
  feq 10.0 (Closed_forms.uniform_t0_lower ~c:1.0 ~lifespan:100.0);
  feq 21.0 (Closed_forms.uniform_t0_upper ~c:1.0 ~lifespan:100.0);
  feq (sqrt 200.0) (Closed_forms.uniform_t0_optimal ~c:1.0 ~lifespan:100.0)

let test_uniform_optimal_m () =
  (* floor(sqrt(200.25) + 0.5) = floor(14.65) = 14 *)
  Alcotest.(check int) "m" 14
    (Closed_forms.uniform_optimal_m ~c:1.0 ~lifespan:100.0)

let test_uniform_bounds_bracket_optimal () =
  (* Paper's own comparison (4.4) vs (4.5): sqrt(cL) <= sqrt(2cL) <=
     2 sqrt(cL) + 1, for all positive c, L. *)
  List.iter
    (fun (c, l) ->
      let lo = Closed_forms.uniform_t0_lower ~c ~lifespan:l in
      let opt = Closed_forms.uniform_t0_optimal ~c ~lifespan:l in
      let hi = Closed_forms.uniform_t0_upper ~c ~lifespan:l in
      Alcotest.(check bool) "bracketed" true (lo <= opt && opt <= hi))
    [ (0.1, 10.0); (1.0, 100.0); (5.0, 1000.0); (0.01, 50.0) ]

(* --- §4.2 geometric-decreasing ----------------------------------------- *)

let test_geo_dec_next_period_fixpoint () =
  (* The optimal equal period t* is the recurrence's fixed point:
     applying eq. 3.6 (§4.2's eq. 4.6) to t* returns t*. *)
  let a = exp 0.07 and c = 1.0 in
  let t_star = Closed_forms.geo_dec_t_optimal ~a ~c in
  let lf = Families.geometric_decreasing ~a in
  match Recurrence.next_period lf ~c ~prev_period:t_star ~prev_end:t_star with
  | Some t -> feq ~eps:1e-9 t_star t
  | None -> Alcotest.fail "fixed point must exist"

let test_geo_dec_next_period_domain () =
  (* t_prev >= c + 1/ln a makes eq. 4.6's rhs nonpositive: None. *)
  let a = exp 0.1 and c = 1.0 in
  let too_big = c +. (1.0 /. log a) +. 0.5 in
  Alcotest.(check bool) "no solution" true
    (Recurrence.next_period (Families.geometric_decreasing ~a) ~c
       ~prev_period:too_big ~prev_end:too_big
    = None)

let test_geo_dec_t_optimal_satisfies_equation () =
  (* t* + a^{-t*}/ln a = c + 1/ln a (the [3] optimality equation). *)
  List.iter
    (fun (a, c) ->
      let t = Closed_forms.geo_dec_t_optimal ~a ~c in
      let lna = log a in
      feq ~eps:1e-9
        (c +. (1.0 /. lna))
        (t +. (Float.pow a (-.t) /. lna)))
    [ (exp 0.05, 1.0); (exp 0.5, 0.3); (2.0, 1.0); (10.0, 0.1) ]

let test_geo_dec_t_optimal_positive_root () =
  (* We need the positive root: t* > c always (some work possible). *)
  List.iter
    (fun (a, c) ->
      let t = Closed_forms.geo_dec_t_optimal ~a ~c in
      Alcotest.(check bool) "t* > c" true (t > c))
    [ (exp 0.05, 1.0); (2.0, 2.0); (1.2, 0.5) ]

let test_geo_dec_bounds_bracket_optimal () =
  (* Paper §4.2: lower <= t* <= upper = c + 1/ln a, with the upper close. *)
  List.iter
    (fun (a, c) ->
      let t = Closed_forms.geo_dec_t_optimal ~a ~c in
      let lo = Closed_forms.geo_dec_t0_lower ~a ~c in
      let hi = Closed_forms.geo_dec_t0_upper ~a ~c in
      Alcotest.(check bool)
        (Printf.sprintf "a=%g c=%g: %g <= %g <= %g" a c lo t hi)
        true
        (lo <= t +. 1e-9 && t <= hi +. 1e-9))
    [ (exp 0.05, 1.0); (exp 0.2, 0.5); (2.0, 1.0); (5.0, 2.0) ]

let test_geo_dec_upper_tight_for_large_risk () =
  (* "Note how close our guidelines' upper bound is to the optimal value":
     as c*ln(a) grows, the relative gap (upper - t_opt)/t_opt shrinks. *)
  let gap a c =
    let t = Closed_forms.geo_dec_t_optimal ~a ~c in
    (Closed_forms.geo_dec_t0_upper ~a ~c -. t) /. t
  in
  let small = gap (exp 0.05) 1.0 in
  let large = gap (exp 2.0) 2.0 in
  Alcotest.(check bool) "relative gap shrinks" true (large < small);
  Alcotest.(check bool) "tight in the high-risk regime" true (large < 0.02)

(* --- §4.3 geometric-increasing ----------------------------------------- *)

let test_geo_inc_optimal_recurrence () =
  (* t' = log2(t - c + 2), t = 5, c = 1 -> log2 6. *)
  feq ~eps:1e-12
    (Special.log2 6.0)
    (match Closed_forms.geo_inc_next_period_optimal ~t_prev:5.0 ~c:1.0 with
    | Some t -> t
    | None -> Float.nan)

let test_geo_inc_recurrences_stop () =
  Alcotest.(check bool) "guideline stops" true
    (Recurrence.next_period (Families.geometric_increasing ~lifespan:30.0)
       ~c:1.0 ~prev_period:0.5 ~prev_end:0.5
    = None);
  Alcotest.(check bool) "optimal stops" true
    (Closed_forms.geo_inc_next_period_optimal ~t_prev:0.5 ~c:2.0 = None)

let test_geo_inc_t0_estimate_scaling () =
  (* t0 ~ L/log2(L)^2: doubling L in the large-L regime scales t0 by
     roughly 2 (log factor moves slowly). *)
  let e1 = Closed_forms.geo_inc_t0_estimate ~lifespan:1024.0 in
  feq ~eps:1e-9 (1024.0 /. 100.0) e1;
  let e2 = Closed_forms.geo_inc_t0_estimate ~lifespan:2048.0 in
  Alcotest.(check bool) "roughly doubles" true (e2 /. e1 > 1.6 && e2 /. e1 < 2.0)

let test_geo_inc_t0_estimate_validation () =
  match Closed_forms.geo_inc_t0_estimate ~lifespan:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "L = 1 accepted"

let prop_lambert_t_optimal_matches_bisection =
  (* Independent check of the Lambert-W closed form against brute force. *)
  QCheck.Test.make ~name:"geo-dec t* (Lambert W) matches direct bisection"
    ~count:100
    QCheck.(pair (float_range 1.05 20.0) (float_range 0.05 5.0))
    (fun (a, c) ->
      let lna = log a in
      let f t = t +. (Float.pow a (-.t) /. lna) -. c -. (1.0 /. lna) in
      (* positive root lies in (c, c + 1/lna] *)
      let hi = c +. (1.0 /. lna) in
      let r = Rootfind.bisect f ~lo:(c +. 1e-12) ~hi in
      Float.abs (Closed_forms.geo_dec_t_optimal ~a ~c -. r.Rootfind.root)
      < 1e-6)

let () =
  Alcotest.run "closed_forms"
    [
      ( "polynomial-4.1",
        [
          Alcotest.test_case "t0 bound scaling" `Quick
            test_poly_t0_bounds_scaling;
          Alcotest.test_case "uniform t0 forms" `Quick test_uniform_t0_forms;
          Alcotest.test_case "uniform optimal m" `Quick test_uniform_optimal_m;
          Alcotest.test_case "bounds bracket optimal" `Quick
            test_uniform_bounds_bracket_optimal;
        ] );
      ( "geometric-decreasing-4.2",
        [
          Alcotest.test_case "recurrence fixed point" `Quick
            test_geo_dec_next_period_fixpoint;
          Alcotest.test_case "recurrence domain" `Quick
            test_geo_dec_next_period_domain;
          Alcotest.test_case "t* equation" `Quick
            test_geo_dec_t_optimal_satisfies_equation;
          Alcotest.test_case "t* > c" `Quick test_geo_dec_t_optimal_positive_root;
          Alcotest.test_case "bounds bracket t*" `Quick
            test_geo_dec_bounds_bracket_optimal;
          Alcotest.test_case "upper tight at high risk" `Quick
            test_geo_dec_upper_tight_for_large_risk;
          QCheck_alcotest.to_alcotest prop_lambert_t_optimal_matches_bisection;
        ] );
      ( "geometric-increasing-4.3",
        [
          Alcotest.test_case "optimal recurrence" `Quick
            test_geo_inc_optimal_recurrence;
          Alcotest.test_case "recurrences stop" `Quick
            test_geo_inc_recurrences_stop;
          Alcotest.test_case "t0 estimate scaling" `Quick
            test_geo_inc_t0_estimate_scaling;
          Alcotest.test_case "t0 estimate validation" `Quick
            test_geo_inc_t0_estimate_validation;
        ] );
    ]
