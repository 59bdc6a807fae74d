let feq eps a b = Alcotest.(check (float eps)) "integral" a b

let test_adaptive_smooth () =
  feq 1e-9 (exp 1.0 -. 1.0) (Quadrature.adaptive_simpson exp ~lo:0.0 ~hi:1.0)

let test_adaptive_peaked () =
  (* Narrow Gaussian: adaptive must find the mass near 0.5.
     ∫ exp(-((x-0.5)/0.01)^2) dx = 0.01 * sqrt(pi) over the real line. *)
  let f x = exp (-.(((x -. 0.5) /. 0.01) ** 2.0)) in
  feq 1e-8
    (0.01 *. sqrt Float.pi)
    (Quadrature.adaptive_simpson ~tol:1e-12 f ~lo:0.0 ~hi:1.0)

let test_integrate_to_infinity_exponential () =
  (* ∫0..inf e^-2t = 0.5 *)
  feq 1e-8 0.5 (Quadrature.integrate_to_infinity (fun t -> exp (-2.0 *. t)) ~lo:0.0)

let test_integrate_to_infinity_shifted () =
  (* ∫1..inf e^-t = e^-1 *)
  feq 1e-8 (exp (-1.0))
    (Quadrature.integrate_to_infinity (fun t -> exp (-.t)) ~lo:1.0)

let test_mean_lifetime_identity () =
  (* For Exp(rate), ∫ p = 1/rate: cross-module identity with Life_function. *)
  let lf = Families.exponential ~rate:0.25 in
  feq 1e-6 4.0 (Life_function.mean_lifetime lf)

let test_mean_lifetime_uniform () =
  (* For uniform lifespan L, ∫ (1 - t/L) = L/2. *)
  let lf = Families.uniform ~lifespan:10.0 in
  feq 1e-8 5.0 (Life_function.mean_lifetime lf)

(* Composite Simpson's rule on [n] (even) panels: the fixed-grid reference
   the adaptive rule is checked against. *)
let composite_simpson f ~lo ~hi ~n =
  let h = (hi -. lo) /. float_of_int n in
  let acc = Kahan.create () in
  Kahan.add acc (f lo);
  Kahan.add acc (f hi);
  for i = 1 to n - 1 do
    let x = lo +. (float_of_int i *. h) in
    let w = if i mod 2 = 1 then 4.0 else 2.0 in
    Kahan.add acc (w *. f x)
  done;
  Kahan.total acc *. h /. 3.0

let prop_adaptive_matches_simpson =
  QCheck.Test.make ~name:"adaptive matches composite simpson on smooth f"
    ~count:100
    QCheck.(pair (float_range 0.2 3.0) (float_range 0.0 2.0))
    (fun (k, phase) ->
      let f x = sin ((k *. x) +. phase) +. (2.0 *. cos (x /. (k +. 1.0))) in
      let a = Quadrature.adaptive_simpson f ~lo:0.0 ~hi:3.0 in
      let s = composite_simpson f ~lo:0.0 ~hi:3.0 ~n:2000 in
      Float.abs (a -. s) < 1e-6)

let () =
  Alcotest.run "quadrature"
    [
      ( "quadrature",
        [
          Alcotest.test_case "adaptive smooth" `Quick test_adaptive_smooth;
          Alcotest.test_case "adaptive peaked" `Quick test_adaptive_peaked;
          Alcotest.test_case "to infinity exponential" `Quick
            test_integrate_to_infinity_exponential;
          Alcotest.test_case "to infinity shifted" `Quick
            test_integrate_to_infinity_shifted;
          Alcotest.test_case "mean lifetime exp" `Quick
            test_mean_lifetime_identity;
          Alcotest.test_case "mean lifetime uniform" `Quick
            test_mean_lifetime_uniform;
          QCheck_alcotest.to_alcotest prop_adaptive_matches_simpson;
        ] );
    ]
