let feq eps a b = Alcotest.(check (float eps)) "derivative" a b

let test_central_polynomial () =
  (* d/dx (x^3) at 2 = 12 *)
  feq 1e-6 12.0 (Diff.central (fun x -> x ** 3.0) 2.0)

let test_central_exp () = feq 1e-6 (exp 1.0) (Diff.central exp 1.0)

let test_forward_backward () =
  feq 1e-4 (cos 1.0) (Diff.forward sin 1.0);
  feq 1e-4 (cos 1.0) (Diff.backward sin 1.0)

let test_second_derivative () =
  (* d2/dx2 (x^4) at 1 = 12 *)
  feq 1e-3 12.0 (Diff.second (fun x -> x ** 4.0) 1.0)

let test_second_of_linear_is_zero () =
  feq 1e-6 0.0 (Diff.second (fun x -> (3.0 *. x) +. 1.0) 5.0)

let test_support_interior () =
  feq 1e-5 (cos 0.5) (Diff.derivative_on_support ~lo:0.0 ~hi:1.0 sin 0.5)

let test_support_left_edge () =
  (* At the left edge the one-sided scheme must not evaluate below lo. *)
  let evals_below = ref false in
  let f x =
    if x < 0.0 then evals_below := true;
    x *. x
  in
  let d = Diff.derivative_on_support ~lo:0.0 ~hi:1.0 f 0.0 in
  Alcotest.(check bool) "no eval below support" false !evals_below;
  feq 1e-3 0.0 d

let test_support_right_edge () =
  let evals_above = ref false in
  let f x =
    if x > 1.0 then evals_above := true;
    x *. x
  in
  let d = Diff.derivative_on_support ~lo:0.0 ~hi:1.0 f 1.0 in
  Alcotest.(check bool) "no eval above support" false !evals_above;
  feq 1e-3 2.0 d

let test_support_unbounded () =
  feq 1e-5 (exp 2.0) (Diff.derivative_on_support ~lo:0.0 ~hi:infinity exp 2.0)

let test_support_outside_raises () =
  Alcotest.check_raises "outside support"
    (Invalid_argument "Diff.derivative_on_support: point outside support")
    (fun () -> ignore (Diff.derivative_on_support ~lo:0.0 ~hi:1.0 sin 2.0))

let prop_central_matches_cos =
  QCheck.Test.make ~name:"central diff of sin ~ cos" ~count:200
    QCheck.(float_range (-10.0) 10.0)
    (fun x -> Float.abs (Diff.central sin x -. cos x) < 1e-5)

let () =
  Alcotest.run "diff"
    [
      ( "diff",
        [
          Alcotest.test_case "central polynomial" `Quick test_central_polynomial;
          Alcotest.test_case "central exp" `Quick test_central_exp;
          Alcotest.test_case "forward/backward" `Quick test_forward_backward;
          Alcotest.test_case "second derivative" `Quick test_second_derivative;
          Alcotest.test_case "second of linear" `Quick
            test_second_of_linear_is_zero;
          Alcotest.test_case "support interior" `Quick test_support_interior;
          Alcotest.test_case "support left edge" `Quick test_support_left_edge;
          Alcotest.test_case "support right edge" `Quick
            test_support_right_edge;
          Alcotest.test_case "support unbounded" `Quick test_support_unbounded;
          Alcotest.test_case "outside support raises" `Quick
            test_support_outside_raises;
          QCheck_alcotest.to_alcotest prop_central_matches_cos;
        ] );
    ]
