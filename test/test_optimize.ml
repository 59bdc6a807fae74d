let check_x ?(eps = 1e-6) expected (p : Optimize.point) =
  Alcotest.(check (float eps)) "argmax/argmin" expected p.Optimize.x

let test_golden_max_parabola () =
  check_x 3.0
    (Optimize.golden_section_max
       (fun x -> -.((x -. 3.0) ** 2.0))
       ~lo:0.0 ~hi:10.0)

let test_golden_min_parabola () =
  check_x 3.0
    (Optimize.golden_section_min (fun x -> (x -. 3.0) ** 2.0) ~lo:0.0 ~hi:10.0)

let test_golden_edge_maximum () =
  (* Monotone increasing: max at right edge. *)
  let p = Optimize.golden_section_max (fun x -> x) ~lo:0.0 ~hi:5.0 in
  Alcotest.(check (float 1e-6)) "edge max" 5.0 p.Optimize.x

let test_brent_max_smooth () =
  (* max of x * exp(-x) at x = 1 *)
  check_x 1.0 (Optimize.brent_max (fun x -> x *. exp (-.x)) ~lo:0.0 ~hi:10.0)

let test_brent_max_value () =
  let p = Optimize.brent_max (fun x -> x *. exp (-.x)) ~lo:0.0 ~hi:10.0 in
  Alcotest.(check (float 1e-9)) "max value" (exp (-1.0)) p.Optimize.fx

let test_grid_max_multimodal () =
  (* sin has local maxima; grid at 100 steps pins the global on [0, 10]:
     both peaks equal 1.0, the first is at pi/2. *)
  let p = Optimize.grid_max sin ~lo:0.0 ~hi:10.0 ~steps:1000 in
  Alcotest.(check (float 1e-3)) "value 1" 1.0 p.Optimize.fx

let test_grid_then_refine_multimodal () =
  (* f has a spurious local max near 0.8 and global near 3.0. *)
  let f x = (2.0 *. exp (-.((x -. 3.0) ** 2.0))) +. exp (-.(((x -. 0.8) /. 0.2) ** 2.0)) in
  let p = Optimize.grid_then_refine f ~lo:0.0 ~hi:5.0 ~steps:64 in
  check_x ~eps:1e-4 3.0 p

let test_grid_max_validation () =
  Alcotest.check_raises "steps >= 1"
    (Invalid_argument "Optimize.grid_max: steps must be >= 1") (fun () ->
      ignore (Optimize.grid_max sin ~lo:0.0 ~hi:1.0 ~steps:0))

let test_coordinate_ascent_quadratic () =
  (* max of -(x-1)^2 - (y-2)^2 - (z+1)^2 *)
  let f v =
    -.((v.(0) -. 1.0) ** 2.0)
    -. ((v.(1) -. 2.0) ** 2.0)
    -. ((v.(2) +. 1.0) ** 2.0)
  in
  let xs, fx =
    Optimize.coordinate_ascent ~f ~lower:[| -5.0; -5.0; -5.0 |]
      ~upper:[| 5.0; 5.0; 5.0 |] [| 0.0; 0.0; 0.0 |]
  in
  Alcotest.(check (float 1e-4)) "x" 1.0 xs.(0);
  Alcotest.(check (float 1e-4)) "y" 2.0 xs.(1);
  Alcotest.(check (float 1e-4)) "z" (-1.0) xs.(2);
  Alcotest.(check (float 1e-6)) "value" 0.0 fx

let test_coordinate_ascent_coupled () =
  (* Coupled objective: -(x+y-3)^2 - (x-y-1)^2, max at x=2, y=1. *)
  let f v =
    -.((v.(0) +. v.(1) -. 3.0) ** 2.0) -. ((v.(0) -. v.(1) -. 1.0) ** 2.0)
  in
  let xs, _ =
    Optimize.coordinate_ascent ~f ~lower:[| -10.0; -10.0 |]
      ~upper:[| 10.0; 10.0 |] [| 0.0; 0.0 |]
  in
  Alcotest.(check (float 1e-3)) "x" 2.0 xs.(0);
  Alcotest.(check (float 1e-3)) "y" 1.0 xs.(1)

let test_coordinate_ascent_respects_box () =
  let f v = v.(0) in
  let xs, _ =
    Optimize.coordinate_ascent ~f ~lower:[| 0.0 |] ~upper:[| 2.0 |] [| 1.0 |]
  in
  Alcotest.(check (float 1e-6)) "clamped to upper" 2.0 xs.(0)

let test_coordinate_ascent_dim_mismatch () =
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Optimize.coordinate_ascent: dimension mismatch")
    (fun () ->
      ignore
        (Optimize.coordinate_ascent
           ~f:(fun _ -> 0.0)
           ~lower:[| 0.0 |] ~upper:[| 1.0; 2.0 |] [| 0.5; 0.5 |]))

let prop_brent_max_finds_parabola_vertex =
  QCheck.Test.make ~name:"brent_max finds random parabola vertices" ~count:200
    QCheck.(float_range 0.5 9.5)
    (fun v ->
      let p = Optimize.brent_max (fun x -> -.((x -. v) ** 2.0)) ~lo:0.0 ~hi:10.0 in
      Float.abs (p.Optimize.x -. v) < 1e-5)

let () =
  Alcotest.run "optimize"
    [
      ( "optimize",
        [
          Alcotest.test_case "golden max parabola" `Quick
            test_golden_max_parabola;
          Alcotest.test_case "golden min parabola" `Quick
            test_golden_min_parabola;
          Alcotest.test_case "golden edge max" `Quick test_golden_edge_maximum;
          Alcotest.test_case "brent max smooth" `Quick test_brent_max_smooth;
          Alcotest.test_case "brent max value" `Quick test_brent_max_value;
          Alcotest.test_case "grid multimodal" `Quick test_grid_max_multimodal;
          Alcotest.test_case "grid+refine multimodal" `Quick
            test_grid_then_refine_multimodal;
          Alcotest.test_case "grid validation" `Quick test_grid_max_validation;
          Alcotest.test_case "coordinate ascent quadratic" `Quick
            test_coordinate_ascent_quadratic;
          Alcotest.test_case "coordinate ascent coupled" `Quick
            test_coordinate_ascent_coupled;
          Alcotest.test_case "coordinate ascent box" `Quick
            test_coordinate_ascent_respects_box;
          Alcotest.test_case "coordinate ascent dim mismatch" `Quick
            test_coordinate_ascent_dim_mismatch;
          QCheck_alcotest.to_alcotest prop_brent_max_finds_parabola_vertex;
        ] );
    ]
