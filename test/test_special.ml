let feq eps a b = Alcotest.(check (float eps)) "value" a b

let test_w0_identity () =
  (* W0(x e^x) = x for x >= -1 *)
  List.iter
    (fun x ->
      let arg = x *. exp x in
      feq 1e-10 x (Special.lambert_w0 arg))
    [ -0.9; -0.5; 0.0; 0.5; 1.0; 2.0; 5.0 ]

let test_w0_known_values () =
  feq 1e-12 0.0 (Special.lambert_w0 0.0);
  (* W0(e) = 1 *)
  feq 1e-10 1.0 (Special.lambert_w0 (exp 1.0));
  (* W0(-1/e) = -1 *)
  feq 1e-4 (-1.0) (Special.lambert_w0 (-.exp (-1.0)))

let test_w0_domain () =
  match Special.lambert_w0 (-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument below -1/e"

let test_w_branches_bracket () =
  (* For x in (-1/e, 0), two w solve w·e^w = x; W0 is the one above -1. *)
  let x = -0.1 in
  let w0 = Special.lambert_w0 x in
  Alcotest.(check bool) "principal branch" true (w0 > -1.0);
  feq 1e-10 x (w0 *. exp w0)

let test_log2 () =
  feq 1e-12 10.0 (Special.log2 1024.0);
  feq 1e-12 0.0 (Special.log2 1.0);
  feq 1e-12 0.5 (Special.log2 (sqrt 2.0))

let test_clamp () =
  feq 0.0 0.0 (Special.smooth_clamp01 (-0.5));
  feq 0.0 1.0 (Special.smooth_clamp01 1.5);
  feq 0.0 0.25 (Special.smooth_clamp01 0.25);
  feq 0.0 0.0 (Special.smooth_clamp01 Float.nan)

let prop_w0_inverse =
  QCheck.Test.make ~name:"W0 inverts w*e^w" ~count:300
    QCheck.(float_range (-0.99) 10.0)
    (fun w ->
      let x = w *. exp w in
      Float.abs (Special.lambert_w0 x -. w) < 1e-6 *. Float.max 1.0 (Float.abs w))

let () =
  Alcotest.run "special"
    [
      ( "special",
        [
          Alcotest.test_case "W0 identity" `Quick test_w0_identity;
          Alcotest.test_case "W0 known values" `Quick test_w0_known_values;
          Alcotest.test_case "W0 domain" `Quick test_w0_domain;
          Alcotest.test_case "branch bracketing" `Quick
            test_w_branches_bracket;
          Alcotest.test_case "log2" `Quick test_log2;
          Alcotest.test_case "clamp01" `Quick test_clamp;
          QCheck_alcotest.to_alcotest prop_w0_inverse;
        ] );
    ]
