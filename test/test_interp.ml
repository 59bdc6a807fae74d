let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0 |]

let test_linear_hits_knots () =
  let ys = [| 0.0; 2.0; 1.0; 5.0; 4.0 |] in
  let ip = Interp.linear ~xs ~ys in
  Array.iteri
    (fun i x ->
      Alcotest.(check (float 1e-12)) "knot value" ys.(i) (Interp.eval ip x))
    xs

let test_linear_midpoint () =
  let ip = Interp.linear ~xs:[| 0.0; 2.0 |] ~ys:[| 0.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "midpoint" 2.0 (Interp.eval ip 1.0)

let test_linear_extrapolates () =
  let ip = Interp.linear ~xs:[| 0.0; 1.0 |] ~ys:[| 0.0; 1.0 |] in
  Alcotest.(check (float 1e-12)) "right extrapolation" 2.0 (Interp.eval ip 2.0)

let test_linear_derivative () =
  let ip = Interp.linear ~xs:[| 0.0; 1.0; 3.0 |] ~ys:[| 0.0; 2.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "slope seg 0" 2.0 (Interp.derivative ip 0.5);
  Alcotest.(check (float 1e-12)) "slope seg 1" 0.0 (Interp.derivative ip 2.0)

let test_pchip_hits_knots () =
  let ys = [| 1.0; 0.8; 0.5; 0.1; 0.0 |] in
  let ip = Interp.pchip ~xs ~ys in
  Array.iteri
    (fun i x ->
      Alcotest.(check (float 1e-10)) "knot value" ys.(i) (Interp.eval ip x))
    xs

let test_pchip_monotone_preserving () =
  (* Decreasing data: interpolant must never increase between samples. *)
  let ys = [| 1.0; 0.9; 0.4; 0.35; 0.0 |] in
  let ip = Interp.pchip ~xs ~ys in
  let prev = ref (Interp.eval ip 0.0) in
  for i = 1 to 400 do
    let x = float_of_int i /. 100.0 in
    let v = Interp.eval ip x in
    if v > !prev +. 1e-9 then
      Alcotest.failf "interpolant increases at x=%g (%g -> %g)" x !prev v;
    prev := v
  done

let test_pchip_no_overshoot () =
  (* Step-like data: cubic splines overshoot; PCHIP must stay in [0, 1]. *)
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 1.0; 0.0; 0.0 |] in
  let ip = Interp.pchip ~xs ~ys in
  for i = 0 to 300 do
    let x = float_of_int i /. 100.0 in
    let v = Interp.eval ip x in
    if v < -1e-9 || v > 1.0 +. 1e-9 then
      Alcotest.failf "overshoot at x=%g: %g" x v
  done

let test_pchip_derivative_consistent () =
  (* The analytic derivative must match finite differences of eval. *)
  let ys = [| 1.0; 0.7; 0.5; 0.2; 0.0 |] in
  let ip = Interp.pchip ~xs ~ys in
  List.iter
    (fun x ->
      let numeric = Diff.central ~h:1e-6 (Interp.eval ip) x in
      let analytic = Interp.derivative ip x in
      Alcotest.(check (float 1e-4)) "derivative matches" numeric analytic)
    [ 0.3; 1.5; 2.2; 3.7 ]

let test_domain_and_knots () =
  let ys = [| 1.0; 0.5; 0.4; 0.2; 0.0 |] in
  let ip = Interp.pchip ~xs ~ys in
  let lo, hi = Interp.domain ip in
  Alcotest.(check (float 0.0)) "lo" 0.0 lo;
  Alcotest.(check (float 0.0)) "hi" 4.0 hi;
  Alcotest.(check int) "knot count" 5 (Array.length (Interp.knots ip))

let test_bad_grid_unsorted () =
  match Interp.linear ~xs:[| 0.0; 2.0; 1.0 |] ~ys:[| 0.0; 1.0; 2.0 |] with
  | exception Interp.Bad_grid _ -> ()
  | _ -> Alcotest.fail "expected Bad_grid"

let test_bad_grid_short () =
  match Interp.pchip ~xs:[| 0.0 |] ~ys:[| 1.0 |] with
  | exception Interp.Bad_grid _ -> ()
  | _ -> Alcotest.fail "expected Bad_grid"

let test_bad_grid_length_mismatch () =
  match Interp.linear ~xs:[| 0.0; 1.0 |] ~ys:[| 1.0 |] with
  | exception Interp.Bad_grid _ -> ()
  | _ -> Alcotest.fail "expected Bad_grid"

let test_two_point_pchip_is_linear () =
  let ip = Interp.pchip ~xs:[| 0.0; 2.0 |] ~ys:[| 0.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "line midpoint" 2.0 (Interp.eval ip 1.0)

let test_inverse () =
  let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = [| 1.0; 0.6; 0.6; 0.6; 0.2; 0.1 |] in
  List.iter
    (fun ip ->
      let inv = Interp.inverse ip in
      (* The plateau [1, 3] at 0.6 maps to its start. *)
      Alcotest.(check (float 0.0)) "plateau start" 1.0 (inv 0.6);
      Alcotest.(check (float 0.0)) "above the first knot" 0.0 (inv 1.5);
      Alcotest.(check (float 0.0)) "at the first knot" 0.0 (inv 1.0);
      Alcotest.(check (float 0.0)) "below the last knot" 5.0 (inv 0.05);
      Alcotest.(check (float 0.0)) "at the last knot" 5.0 (inv 0.1);
      List.iter
        (fun y -> Alcotest.(check (float 1e-14)) "eval (inv y)" y (Interp.eval ip (inv y)))
        [ 0.99; 0.8; 0.61; 0.59; 0.4; 0.2; 0.15; 0.1000001 ])
    [ Interp.linear ~xs ~ys; Interp.pchip ~xs ~ys ];
  let linear = Interp.inverse (Interp.linear ~xs ~ys) in
  Alcotest.(check (float 1e-15)) "linear piece" 3.5 (linear 0.4);
  let bump = Interp.pchip ~xs ~ys:[| 1.0; 0.5; 0.55; 0.5; 0.2; 0.0 |] in
  match Interp.inverse bump 0.3 with
  | exception Interp.Bad_grid _ -> ()
  | _ -> Alcotest.fail "expected Bad_grid (increasing knot value)"

let prop_pchip_monotone_on_random_decreasing =
  QCheck.Test.make ~name:"pchip preserves monotonicity on random survival data"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 3 12) (float_range 0.01 1.0))
    (fun raw ->
      (* Build a decreasing survival-like sequence from positive increments *)
      let n = List.length raw in
      let xs = Array.init (n + 1) float_of_int in
      let total = List.fold_left ( +. ) 0.0 raw in
      let ys = Array.make (n + 1) 1.0 in
      let acc = ref 1.0 in
      List.iteri
        (fun i d ->
          acc := !acc -. (d /. total);
          ys.(i + 1) <- Float.max 0.0 !acc)
        raw;
      let ip = Interp.pchip ~xs ~ys in
      let inv = Interp.inverse ip in
      let ok = ref true in
      let prev = ref (Interp.eval ip 0.0) in
      for i = 1 to 200 do
        let x = float_of_int n *. float_of_int i /. 200.0 in
        let v = Interp.eval ip x in
        if v > !prev +. 1e-9 then ok := false;
        (* The inverse lands where eval returns v again. *)
        if Float.abs (Interp.eval ip (inv v) -. v) > 1e-14 then ok := false;
        prev := v
      done;
      !ok)

let () =
  Alcotest.run "interp"
    [
      ( "interp",
        [
          Alcotest.test_case "linear hits knots" `Quick test_linear_hits_knots;
          Alcotest.test_case "linear midpoint" `Quick test_linear_midpoint;
          Alcotest.test_case "linear extrapolates" `Quick
            test_linear_extrapolates;
          Alcotest.test_case "linear derivative" `Quick test_linear_derivative;
          Alcotest.test_case "pchip hits knots" `Quick test_pchip_hits_knots;
          Alcotest.test_case "pchip monotone" `Quick
            test_pchip_monotone_preserving;
          Alcotest.test_case "pchip no overshoot" `Quick test_pchip_no_overshoot;
          Alcotest.test_case "pchip derivative consistent" `Quick
            test_pchip_derivative_consistent;
          Alcotest.test_case "domain and knots" `Quick test_domain_and_knots;
          Alcotest.test_case "bad grid unsorted" `Quick test_bad_grid_unsorted;
          Alcotest.test_case "bad grid short" `Quick test_bad_grid_short;
          Alcotest.test_case "bad grid mismatch" `Quick
            test_bad_grid_length_mismatch;
          Alcotest.test_case "two-point pchip" `Quick
            test_two_point_pchip_is_linear;
          Alcotest.test_case "inverse" `Quick test_inverse;
          QCheck_alcotest.to_alcotest prop_pchip_monotone_on_random_decreasing;
        ] );
    ]
