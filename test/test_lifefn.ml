(* p never rises by more than 1e-9 from one point to the next of a
   256-cell grid over [0, horizon]. *)
let decreasing_on_grid lf =
  let hi = Life_function.horizon lf in
  let at i = Life_function.eval lf (float_of_int i /. 256.0 *. hi) in
  List.for_all (fun i -> at i <= at (i - 1) +. 1e-9) (List.init 256 succ)

let feq eps a b = Alcotest.(check (float eps)) "value" a b

(* --- constructors and validation ----------------------------------- *)

let test_make_validates_p0 () =
  match
    Life_function.make ~name:"bad" ~support:(Life_function.Bounded 1.0)
      (fun _ -> 0.5)
  with
  | exception Life_function.Invalid_life_function _ -> ()
  | _ -> Alcotest.fail "expected Invalid_life_function (p(0) != 1)"

let test_make_validates_monotone () =
  match
    Life_function.make ~name:"bumpy" ~support:(Life_function.Bounded 1.0)
      (fun t -> Float.min 1.0 (1.0 -. t +. (0.5 *. sin (20.0 *. t))))
  with
  | exception Life_function.Invalid_life_function _ -> ()
  | _ -> Alcotest.fail "expected Invalid_life_function (not monotone)"

let test_make_validates_support () =
  match
    Life_function.make ~name:"neg" ~support:(Life_function.Bounded (-1.0))
      (fun _ -> 1.0)
  with
  | exception Life_function.Invalid_life_function _ -> ()
  | _ -> Alcotest.fail "expected Invalid_life_function (bad lifespan)"

let test_eval_clamps () =
  let lf = Families.uniform ~lifespan:10.0 in
  feq 0.0 1.0 (Life_function.eval lf (-5.0));
  feq 0.0 0.0 (Life_function.eval lf 11.0);
  feq 1e-12 0.5 (Life_function.eval lf 5.0)

(* --- family definitions against the paper's formulas ----------------- *)

let test_uniform_formula () =
  let lf = Families.uniform ~lifespan:4.0 in
  feq 1e-12 0.75 (Life_function.eval lf 1.0);
  feq 1e-12 (-0.25) (Life_function.deriv lf 1.0)

let test_polynomial_formula () =
  let lf = Families.polynomial ~d:3 ~lifespan:2.0 in
  (* p(1) = 1 - 1/8 *)
  feq 1e-12 0.875 (Life_function.eval lf 1.0);
  (* p'(t) = -3 t^2 / 8 *)
  feq 1e-12 (-0.375) (Life_function.deriv lf 1.0)

let test_polynomial_d1_is_uniform () =
  let p1 = Families.polynomial ~d:1 ~lifespan:7.0 in
  let u = Families.uniform ~lifespan:7.0 in
  List.iter
    (fun t ->
      feq 1e-12 (Life_function.eval u t) (Life_function.eval p1 t))
    [ 0.0; 1.0; 3.5; 6.9 ]

let test_geometric_decreasing_formula () =
  let lf = Families.geometric_decreasing ~a:2.0 in
  feq 1e-12 0.5 (Life_function.eval lf 1.0);
  feq 1e-12 0.25 (Life_function.eval lf 2.0);
  feq 1e-12 (-.(log 2.0) /. 2.0) (Life_function.deriv lf 1.0)

let test_exponential_equals_geometric () =
  let e = Families.exponential ~rate:0.3 in
  let g = Families.geometric_decreasing ~a:(exp 0.3) in
  List.iter
    (fun t -> feq 1e-12 (Life_function.eval g t) (Life_function.eval e t))
    [ 0.0; 1.0; 5.0; 20.0 ]

let test_geometric_increasing_formula () =
  (* Direct formula for small L where 2^L is exactly representable. *)
  let l = 10.0 in
  let lf = Families.geometric_increasing ~lifespan:l in
  let direct t = ((2.0 ** l) -. (2.0 ** t)) /. ((2.0 ** l) -. 1.0) in
  List.iter
    (fun t -> feq 1e-12 (direct t) (Life_function.eval lf t))
    [ 0.0; 1.0; 5.0; 9.0; 9.99 ]

let test_geometric_increasing_large_l_stable () =
  (* 2^2000 overflows; the stable form must still work. Halfway through a
     lifespan this long the survival is 1.0 to double precision (all decay
     happens in the last ~50 time units), so probe both regions. *)
  let lf = Families.geometric_increasing ~lifespan:2000.0 in
  let mid = Life_function.eval lf 1000.0 in
  Alcotest.(check bool) "finite and in (0,1]" true (mid > 0.0 && mid <= 1.0);
  let near_end = Life_function.eval lf 1995.0 in
  Alcotest.(check bool) "strictly inside (0,1) near the end" true
    (near_end > 0.0 && near_end < 1.0)

let test_weibull_shape1_is_exponential () =
  let w = Families.weibull ~shape:1.0 ~scale:2.0 in
  let e = Families.exponential ~rate:0.5 in
  List.iter
    (fun t -> feq 1e-12 (Life_function.eval e t) (Life_function.eval w t))
    [ 0.5; 1.0; 4.0 ]

let test_weibull_declared_shape () =
  List.iter
    (fun (k, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "weibull k=%g declared shape" k)
        true
        (Life_function.shape (Families.weibull ~shape:k ~scale:50.0) = expected))
    [
      (0.8, Life_function.Convex);
      (1.0, Life_function.Convex);
      (1.5, Life_function.Log_concave);
    ];
  (* The certificate: log p has nonpositive second differences. *)
  List.iter
    (fun k ->
      let lf = Families.weibull ~shape:k ~scale:50.0 in
      let n = 400 in
      let h = Life_function.horizon lf /. float_of_int n in
      let log_p i = log (Life_function.eval lf (float_of_int i *. h)) in
      for i = 1 to n - 1 do
        let d2 = log_p (i - 1) -. (2.0 *. log_p i) +. log_p (i + 1) in
        if d2 > 1e-9 *. Float.max 1.0 (Float.abs (log_p i)) then
          Alcotest.failf "weibull k=%g: log p convex at t=%g (%g)" k
            (float_of_int i *. h) d2
      done)
    [ 1.2; 2.0; 3.0 ]

let test_power_law_formula () =
  let lf = Families.power_law ~d:2.0 in
  feq 1e-12 0.25 (Life_function.eval lf 1.0);
  feq 1e-12 (1.0 /. 9.0) (Life_function.eval lf 2.0)

let test_family_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      (fun () -> ignore (Families.uniform ~lifespan:0.0));
      (fun () -> ignore (Families.polynomial ~d:0 ~lifespan:1.0));
      (fun () -> ignore (Families.geometric_decreasing ~a:1.0));
      (fun () -> ignore (Families.exponential ~rate:(-1.0)));
      (fun () -> ignore (Families.geometric_increasing ~lifespan:(-2.0)));
      (fun () -> ignore (Families.weibull ~shape:0.0 ~scale:1.0));
      (fun () -> ignore (Families.power_law ~d:0.0));
      (fun () -> ignore (Families.scale_time ~factor:0.0 (Families.uniform ~lifespan:1.0)));
    ]

(* --- calculus ------------------------------------------------------- *)

let test_numeric_derivative_fallback () =
  (* Construct without dp: deriv must fall back to finite differences. *)
  let lf =
    Life_function.make ~name:"no-dp" ~support:(Life_function.Bounded 10.0)
      (fun t -> 1.0 -. (t /. 10.0))
  in
  feq 1e-5 (-0.1) (Life_function.deriv lf 5.0)

let test_conditional_survival_memoryless () =
  (* Exponential: P(T > s + e | T > e) = P(T > s), so the §6 conditional
     is p again, inverse included. *)
  let lf = Families.exponential ~rate:0.2 in
  let cond = Option.get (Life_function.condition lf ~elapsed:5.0) in
  List.iter
    (fun s -> feq 1e-9 (Life_function.eval lf s) (Life_function.eval cond s))
    [ 0.5; 3.0; 20.0 ];
  feq 1e-9 (Life_function.inverse lf 0.3) (Life_function.inverse cond 0.3)

let test_conditional_survival_uniform () =
  let lf = Families.uniform ~lifespan:10.0 in
  let cond = Option.get (Life_function.condition lf ~elapsed:5.0) in
  (* P(T > 5+2 | T > 5) = p(7)/p(5) = 0.3/0.5 *)
  feq 1e-9 0.6 (Life_function.eval cond 2.0)

let test_quantile_time () =
  let lf = Families.uniform ~lifespan:10.0 in
  feq 1e-6 5.0 (Life_function.quantile_time lf ~q:0.5);
  let e = Families.exponential ~rate:1.0 in
  feq 1e-6 (log 2.0) (Life_function.quantile_time e ~q:0.5)

let test_horizon_bounded () =
  let lf = Families.uniform ~lifespan:42.0 in
  feq 0.0 42.0 (Life_function.horizon lf)

let test_horizon_unbounded () =
  let lf = Families.exponential ~rate:1.0 in
  let h = Life_function.horizon lf in
  Alcotest.(check bool) "p(horizon) tiny" true (Life_function.eval lf h <= 1e-12)

(* The doubling search runs past 2^80 to the 1e-12 point wherever that
   is a float, and refuses a p still above 1e-12 at 2^1023. Stopping at
   2^80 made each p below plan one period of 2^80, or 100,000 periods. *)
let test_horizon_beyond_2_80 () =
  let lf = Families.exponential ~rate:1e-30 in
  let h = Life_function.horizon lf in
  Alcotest.(check bool) "past 2^80" true (h > 0x1p80);
  Alcotest.(check bool) "first doubling at 1e-12" true
    (Life_function.eval lf h <= 1e-12 && Life_function.eval lf (h /. 2.0) > 1e-12)

let test_horizon_refused_past_floats () =
  List.iter
    (fun lf ->
      match Life_function.horizon lf with
      | exception Invalid_argument _ -> ()
      | h -> Alcotest.failf "%s: horizon %g" (Life_function.name lf) h)
    [
      Families.exponential ~rate:1e-308;
      Families.scale_time ~factor:1e300 (Families.weibull ~shape:2.0 ~scale:1e10);
    ]

(* A Weibull whose 1e-12 point passes the floats is refused when built:
   there, t / scale overflows before p drops, and p falls from about e^-1
   straight to 0. *)
let test_weibull_refused_past_floats () =
  List.iter
    (fun (shape, scale) ->
      match Families.weibull ~shape ~scale with
      | exception Invalid_argument _ -> ()
      | lf -> Alcotest.failf "%s admitted" (Life_function.name lf))
    [ (1e-300, 1.0); (1.0, 1e308); (1e-5, 1.0); (9.09324e-19, 2.90968e-59) ]

(* --- shape classification ------------------------------------------- *)

let test_classify_shapes () =
  let check name expected lf =
    let got = Life_function.classify_shape lf in
    Alcotest.(check bool)
      (Printf.sprintf "%s classified" name)
      true (got = expected)
  in
  check "uniform" Life_function.Linear (Families.uniform ~lifespan:10.0);
  check "polynomial d=2" Life_function.Concave
    (Families.polynomial ~d:2 ~lifespan:10.0);
  check "geometric decreasing" Life_function.Convex
    (Families.geometric_decreasing ~a:2.0);
  check "geometric increasing" Life_function.Concave
    (Families.geometric_increasing ~lifespan:10.0)

let test_scale_time () =
  let lf = Families.uniform ~lifespan:10.0 in
  let scaled = Families.scale_time ~factor:60.0 lf in
  feq 1e-12 0.5 (Life_function.eval scaled 300.0);
  (match Life_function.support scaled with
  | Life_function.Bounded l -> feq 1e-9 600.0 l
  | Life_function.Unbounded -> Alcotest.fail "expected bounded support");
  feq 1e-12
    (Life_function.deriv lf 5.0 /. 60.0)
    (Life_function.deriv scaled 300.0)

let test_of_interpolant_requires_zero_origin () =
  let ip = Interp.pchip ~xs:[| 1.0; 2.0; 3.0 |] ~ys:[| 1.0; 0.5; 0.0 |] in
  match Families.of_interpolant ~name:"bad-origin" ip with
  | exception Life_function.Invalid_life_function _ -> ()
  | _ -> Alcotest.fail "domain not starting at 0 accepted"

let test_of_interpolant_rejects_bump () =
  (* p(1) = 0.5 < p(1.005) = 0.55: too narrow for make's sample grid, but
     a knot value increases. *)
  let ip =
    Interp.pchip
      ~xs:[| 0.0; 1.0; 1.005; 1.01; 2.0 |]
      ~ys:[| 1.0; 0.5; 0.55; 0.5; 0.0 |]
  in
  match Families.of_interpolant ~name:"bump" ip with
  | exception Life_function.Invalid_life_function _ -> ()
  | _ -> Alcotest.fail "increasing knot value accepted"

let test_of_interpolant_roundtrip () =
  let ip =
    Interp.pchip ~xs:[| 0.0; 5.0; 10.0 |] ~ys:[| 1.0; 0.4; 0.0 |]
  in
  let lf = Families.of_interpolant ~name:"tri" ip in
  feq 1e-9 0.4 (Life_function.eval lf 5.0);
  Alcotest.(check bool) "derivative nonpositive" true
    (Life_function.deriv lf 5.0 <= 0.0);
  match Life_function.support lf with
  | Life_function.Bounded l -> feq 1e-9 10.0 l
  | Life_function.Unbounded -> Alcotest.fail "expected bounded"

let test_pp_mentions_name_and_shape () =
  let s = Format.asprintf "%a" Life_function.pp (Families.uniform ~lifespan:7.0) in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has name" true (contains s "uniform");
  Alcotest.(check bool) "has shape" true (contains s "linear")

let test_all_paper_scenarios_valid () =
  let scenarios = Families.all_paper_scenarios ~c:1.0 in
  Alcotest.(check int) "five scenarios" 5 (List.length scenarios);
  List.iter
    (fun (_, lf) ->
      Alcotest.(check bool) "decreasing" true
        (decreasing_on_grid lf))
    scenarios

let prop_families_decreasing =
  QCheck.Test.make ~name:"all families decrease on their support" ~count:50
    QCheck.(
      triple (float_range 1.5 8.0) (float_range 5.0 500.0)
        (float_range 0.3 3.0))
    (fun (a, l, k) ->
      List.for_all decreasing_on_grid
        [
          Families.uniform ~lifespan:l;
          Families.polynomial ~d:2 ~lifespan:l;
          Families.polynomial ~d:4 ~lifespan:l;
          Families.geometric_decreasing ~a;
          Families.exponential ~rate:(log a /. l);
          Families.geometric_increasing ~lifespan:(Float.min l 100.0);
          Families.weibull ~shape:k ~scale:l;
        ])

(* --- the families' run-time check, kept as a test ------------------- *)

(* The six paper families pass [~validate:false] to [make]. Where a
   constructor's guard admits its parameters, this re-runs [make]'s
   checks, at its tolerances, on the family's p and inverse; it returns
   whether the guard admitted them. *)
let revalidated make =
  match make () with
  | exception Invalid_argument _ -> false
  | lf -> (
      match
        Life_function.make ~validate:true ~name:(Life_function.name lf)
          ~support:(Life_function.support lf)
          ~inv:(Life_function.inverse lf) (Life_function.eval lf)
      with
      | _ -> true
      | exception Life_function.Invalid_life_function m ->
          Alcotest.failf "make's check refuses %s" m)

(* Every constructor call on an extreme grid; Weibull over shape x
   scale. *)
let test_families_pass_make_checks_on_grid () =
  let grid =
    [ 5e-324; 1e-300; 1e-100; 1e-20; 1e-9; 1e-3; 0.5; 1.0; 1.0 +. 1e-10;
      1.5; 2.0; 10.0; 1e3; 1e9; 1e20; 1e100; 1e300; 1e308; max_float ]
  in
  let admitted = ref 0 in
  let check make = if revalidated make then incr admitted in
  List.iter
    (fun x ->
      check (fun () -> Families.uniform ~lifespan:x);
      List.iter
        (fun d -> check (fun () -> Families.polynomial ~d ~lifespan:x))
        [ 2; 3; 5; 10; 50 ];
      check (fun () -> Families.geometric_decreasing ~a:x);
      check (fun () -> Families.exponential ~rate:x);
      check (fun () -> Families.geometric_increasing ~lifespan:x);
      List.iter
        (fun y -> check (fun () -> Families.weibull ~shape:x ~scale:y))
        grid)
    grid;
  (* 19 points each for uniform, exponential and geometric-increasing,
     5 x 19 polynomials, the 11 with a > 1 for geometric-decreasing, and
     the 234 of 19 x 19 Weibulls whose 1e-12 survival point is a float. *)
  Alcotest.(check int) "admitted grid points" 397 !admitted

(* 500 draws per family, parameters log-uniform over 600 decades, 10^-300
   to 10^300; a for geometric-decreasing is 1 + such a draw. About half
   of the a round to 1, and half of the Weibull shapes lie below 0.0047,
   where the 1e-12 survival point passes the floats; the guards refuse
   those. *)
let test_families_pass_make_checks_on_sweep () =
  let g = Prng.create ~seed:31L in
  let draw () = 10.0 ** Prng.float_range g ~lo:(-300.0) ~hi:300.0 in
  let admitted = Array.make 6 0 in
  for _ = 1 to 500 do
    let x = draw () and y = draw () in
    let d = 2 + Prng.int g ~bound:49 in
    List.iteri
      (fun k make ->
        if revalidated make then admitted.(k) <- admitted.(k) + 1)
      [
        (fun () -> Families.uniform ~lifespan:x);
        (fun () -> Families.polynomial ~d ~lifespan:x);
        (fun () -> Families.geometric_decreasing ~a:(1.0 +. x));
        (fun () -> Families.exponential ~rate:x);
        (fun () -> Families.geometric_increasing ~lifespan:x);
        (fun () -> Families.weibull ~shape:x ~scale:y);
      ]
  done;
  Array.iteri
    (fun k n ->
      if n < 200 then Alcotest.failf "family %d: %d of 500 draws admitted" k n)
    admitted

let prop_deriv_negative_in_interior =
  QCheck.Test.make ~name:"derivatives are nonpositive inside the support"
    ~count:100
    QCheck.(pair (float_range 10.0 100.0) (float_range 0.05 0.95))
    (fun (l, frac) ->
      let t = frac *. l in
      Life_function.deriv (Families.uniform ~lifespan:l) t <= 0.0
      && Life_function.deriv (Families.polynomial ~d:3 ~lifespan:l) t <= 0.0
      && Life_function.deriv (Families.geometric_increasing ~lifespan:(Float.min l 50.0)) (frac *. Float.min l 50.0) <= 0.0)

(* --- inverses ---------------------------------------------------- *)

let test_wrong_inverse_rejected () =
  (* Uniform's inverse on a polynomial p: every sampled value disagrees. *)
  let l = 10.0 in
  match
    Life_function.make ~name:"poly-with-uniform-inverse"
      ~support:(Life_function.Bounded l)
      ~inv:(fun u -> l *. (1.0 -. u))
      (fun t -> 1.0 -. ((t /. l) ** 2.0))
  with
  | exception Life_function.Invalid_life_function _ -> ()
  | _ -> Alcotest.fail "expected Invalid_life_function (wrong inverse)"

(* Each family, or a trace fit of Weibull absences, its parameters spread
   over their ranges by [x], [y] in [0, 1), optionally stretched by
   scale_time. *)
let round_trip_case (k, x, y, factor) =
  let lf =
    match k with
    | 0 -> Families.uniform ~lifespan:(1.0 +. (499.0 *. x))
    | 1 ->
        Families.polynomial
          ~d:(2 + int_of_float (4.0 *. y))
          ~lifespan:(1.0 +. (499.0 *. x))
    | 2 -> Families.geometric_decreasing ~a:(exp (0.005 +. (2.0 *. x)))
    | 3 -> Families.exponential ~rate:(0.005 +. (2.0 *. x))
    | 4 -> Families.geometric_increasing ~lifespan:(1.0 +. (199.0 *. x))
    | 5 ->
        Families.weibull ~shape:(0.5 +. (2.5 *. y)) ~scale:(1.0 +. (199.0 *. x))
    | 6 -> Families.power_law ~d:(0.5 +. (2.5 *. y))
    | _ ->
        let model =
          Owner_model.Weibull_absence
            { shape = 0.5 +. (2.5 *. y); scale = 1.0 +. (199.0 *. x) }
        in
        let g = Prng.create ~seed:(Int64.of_float (1e9 *. x)) in
        (Survival.of_durations
           (Array.init 200 (fun _ -> Owner_model.sample model g)))
          .Survival.life
  in
  if factor < 1.0 then lf else Families.scale_time ~factor lf

let prop_inverse_round_trips =
  QCheck.Test.make ~name:"closed-form inverses round-trip p" ~count:200
    QCheck.(
      quad (int_range 0 7) (float_range 0.0 1.0) (float_range 0.0 1.0)
        (float_range 0.5 4.0))
    (fun params ->
      let lf = round_trip_case params in
      let inv = Life_function.inverse lf in
      let p = Life_function.eval lf in
      let grid = List.init 64 (fun i -> (float_of_int i +. 0.5) /. 64.0) in
      let decades = List.init 12 (fun k -> 10.0 ** -.float_of_int (k + 1)) in
      let us = grid @ decades @ List.map (fun d -> 1.0 -. d) decades in
      let forward_ok u = Float.abs (p (inv u) -. u) <= 1e-12 in
      let h = Life_function.horizon lf in
      let ts = List.map (fun f -> f *. h) (grid @ decades) in
      (* p t is itself rounded, by up to half an ulp of 1 near p = 1, and
         any inverse carries that error with slope 1 / |p' t|. Where p is
         flat near 0 (polynomial, Weibull with shape > 1,
         geometric-increasing) that term exceeds 1e-9 * max 1 t, so the
         tolerance adds it, at one ulp. *)
      let backward_ok t =
        let v = p t in
        v <= 1e-12 || v >= 1.0 -. 1e-9
        || Float.abs (inv v -. t)
           <= (1e-9 *. Float.max 1.0 t)
              +. (epsilon_float /. Float.abs (Life_function.deriv lf t))
      in
      List.for_all forward_ok us && List.for_all backward_ok ts)

(* --- the fused evaluation ----------------------------------------- *)

let bits = Int64.bits_of_float

(* A caller-built bounded p with no [?dp], [?fused] or [?inv]. *)
let opaque_bounded ~d ~lifespan =
  Life_function.make ~name:"opaque" ~support:(Life_function.Bounded lifespan)
    (fun t -> 1.0 -. Float.pow (t /. lifespan) d)

(* Every family and trace fit of [round_trip_case], a §6 conditional of
   one of them, or a caller-built p without [?dp]. *)
let fused_case (k, x, y, factor) =
  match k with
  | 8 ->
      let lf = round_trip_case (int_of_float (8.0 *. y), x, y, factor) in
      Option.get
        (Life_function.condition lf
           ~elapsed:(0.5 *. x *. Life_function.horizon lf))
  | 9 -> opaque_bounded ~d:(0.7 +. (3.0 *. y)) ~lifespan:(1.0 +. (499.0 *. x))
  | _ -> round_trip_case (k, x, y, factor)

let prop_eval_deriv_is_eval_and_deriv =
  QCheck.Test.make ~name:"eval_deriv = (eval, deriv) bit for bit inside"
    ~count:300
    QCheck.(
      quad (int_range 0 9) (float_range 0.0 1.0) (float_range 0.0 1.0)
        (float_range 0.5 4.0))
    (fun params ->
      let lf = fused_case params in
      let h = Life_function.horizon lf in
      let fracs =
        List.init 64 (fun i -> (float_of_int i +. 0.5) /. 64.0)
        @ List.init 12 (fun k -> 10.0 ** -.float_of_int (k + 1))
      in
      let pt = Life_function.point () in
      List.for_all
        (fun f ->
          let x = f *. h in
          Life_function.eval_deriv lf x pt;
          let same =
            Int64.equal (bits pt.Life_function.x) (bits x)
            && Int64.equal (bits pt.p) (bits (Life_function.eval lf x))
            && Int64.equal (bits pt.dp) (bits (Life_function.deriv lf x))
          in
          if not same then
            QCheck.Test.fail_reportf "%s at %h: (%h, %h) vs (%h, %h)"
              (Life_function.name lf) x pt.p pt.dp (Life_function.eval lf x)
              (Life_function.deriv lf x);
          same)
        fracs)

(* --- conditioning (§6) ---------------------------------------------- *)

let test_condition_at_zero_is_p () =
  List.iter
    (fun lf ->
      let cond = Option.get (Life_function.condition lf ~elapsed:0.0) in
      let h = Life_function.horizon lf in
      List.iter
        (fun f ->
          let x = f *. h in
          Alcotest.(check int64)
            (Printf.sprintf "%s: eval at %g" (Life_function.name lf) x)
            (bits (Life_function.eval lf x))
            (bits (Life_function.eval cond x));
          Alcotest.(check int64)
            (Printf.sprintf "%s: deriv at %g" (Life_function.name lf) x)
            (bits (Life_function.deriv lf x))
            (bits (Life_function.deriv cond x)))
        [ 0.001; 0.1; 0.37; 0.5; 0.9 ];
      List.iter
        (fun u ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: inverse at %g" (Life_function.name lf) u)
            (bits (Life_function.inverse lf u))
            (bits (Life_function.inverse cond u)))
        [ 0.01; 0.3; 0.5; 0.99 ];
      Alcotest.(check bool) "shape inherited" true
        (Life_function.shape lf = Life_function.shape cond))
    [
      Families.uniform ~lifespan:100.0;
      Families.polynomial ~d:3 ~lifespan:80.0;
      Families.exponential ~rate:0.03;
      Families.weibull ~shape:1.5 ~scale:80.0;
      opaque_bounded ~d:2.0 ~lifespan:10.0;
    ]

let test_condition_shifts () =
  let lf = Families.uniform ~lifespan:100.0 in
  let cond = Option.get (Life_function.condition lf ~elapsed:40.0) in
  Alcotest.(check bool) "lifespan left" true
    (Life_function.support cond = Life_function.Bounded 60.0);
  feq 1e-12 0.5 (Life_function.eval cond 30.0);
  feq 1e-12 30.0 (Life_function.inverse cond 0.5);
  (* Where p is 0 there is nothing to condition on. *)
  List.iter
    (fun (lf, elapsed) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s at %g" (Life_function.name lf) elapsed)
        true
        (Option.is_none (Life_function.condition lf ~elapsed)))
    [ (lf, 100.0); (lf, 250.0); (Families.exponential ~rate:1.0, 1e4) ];
  match Life_function.condition lf ~elapsed:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative elapsed accepted"

let test_eval_deriv_clamped_region () =
  (* Where eval clamps, the point holds the clamp and a zero slope, and
     no derivative is taken: beyond L the numerical one would raise. *)
  let opaque = opaque_bounded ~d:2.0 ~lifespan:10.0 in
  (match Life_function.deriv opaque 12.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected the numerical derivative to raise beyond L");
  let pt = Life_function.point () in
  List.iter
    (fun (lf, x, p) ->
      Life_function.eval_deriv lf x pt;
      Alcotest.(check (float 0.0)) "x" x pt.Life_function.x;
      Alcotest.(check (float 0.0)) "clamped p" p pt.p;
      Alcotest.(check (float 0.0)) "no slope" 0.0 pt.dp)
    [
      (opaque, 12.0, 0.0);
      (opaque, 10.0, 0.0);
      (opaque, 0.0, 1.0);
      (opaque, -3.0, 1.0);
      (Families.uniform ~lifespan:10.0, 10.0, 0.0);
      (Families.weibull ~shape:0.5 ~scale:10.0, 0.0, 1.0);
    ];
  match
    Life_function.make ~name:"fused without dp"
      ~support:Life_function.Unbounded
      ~fused:(fun _ _ -> ())
      (fun t -> exp (-.t))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "?fused without ?dp accepted"

let () =
  Alcotest.run "lifefn"
    [
      ( "validation",
        [
          Alcotest.test_case "p(0) = 1 enforced" `Quick test_make_validates_p0;
          Alcotest.test_case "monotonicity enforced" `Quick
            test_make_validates_monotone;
          Alcotest.test_case "support validated" `Quick
            test_make_validates_support;
          Alcotest.test_case "eval clamps" `Quick test_eval_clamps;
          Alcotest.test_case "family arg validation" `Quick
            test_family_validation;
        ] );
      ( "families",
        [
          Alcotest.test_case "uniform formula" `Quick test_uniform_formula;
          Alcotest.test_case "polynomial formula" `Quick
            test_polynomial_formula;
          Alcotest.test_case "polynomial d=1 = uniform" `Quick
            test_polynomial_d1_is_uniform;
          Alcotest.test_case "geometric decreasing" `Quick
            test_geometric_decreasing_formula;
          Alcotest.test_case "exponential = geometric" `Quick
            test_exponential_equals_geometric;
          Alcotest.test_case "geometric increasing" `Quick
            test_geometric_increasing_formula;
          Alcotest.test_case "geo increasing large L" `Quick
            test_geometric_increasing_large_l_stable;
          Alcotest.test_case "weibull shape 1" `Quick
            test_weibull_shape1_is_exponential;
          Alcotest.test_case "weibull log-concave certificate" `Quick
            test_weibull_declared_shape;
          Alcotest.test_case "power law" `Quick test_power_law_formula;
          Alcotest.test_case "of_interpolant origin check" `Quick
            test_of_interpolant_requires_zero_origin;
          Alcotest.test_case "of_interpolant rejects a bump" `Quick
            test_of_interpolant_rejects_bump;
          Alcotest.test_case "of_interpolant roundtrip" `Quick
            test_of_interpolant_roundtrip;
          Alcotest.test_case "pp output" `Quick test_pp_mentions_name_and_shape;
          Alcotest.test_case "paper scenarios valid" `Quick
            test_all_paper_scenarios_valid;
          Alcotest.test_case "make's checks hold on an extreme grid" `Quick
            test_families_pass_make_checks_on_grid;
          Alcotest.test_case "make's checks hold on a log-uniform sweep"
            `Quick test_families_pass_make_checks_on_sweep;
        ] );
      ( "calculus",
        [
          Alcotest.test_case "numeric derivative fallback" `Quick
            test_numeric_derivative_fallback;
          Alcotest.test_case "memoryless conditional" `Quick
            test_conditional_survival_memoryless;
          Alcotest.test_case "uniform conditional" `Quick
            test_conditional_survival_uniform;
          Alcotest.test_case "quantile time" `Quick test_quantile_time;
          Alcotest.test_case "horizon bounded" `Quick test_horizon_bounded;
          Alcotest.test_case "horizon unbounded" `Quick test_horizon_unbounded;
          Alcotest.test_case "horizon past 2^80" `Quick
            test_horizon_beyond_2_80;
          Alcotest.test_case "horizon refused past the floats" `Quick
            test_horizon_refused_past_floats;
          Alcotest.test_case "weibull refused past the floats" `Quick
            test_weibull_refused_past_floats;
          Alcotest.test_case "classify shapes" `Quick test_classify_shapes;
          Alcotest.test_case "scale time" `Quick test_scale_time;
          Alcotest.test_case "wrong inverse rejected" `Quick
            test_wrong_inverse_rejected;
          Alcotest.test_case "eval_deriv where eval clamps" `Quick
            test_eval_deriv_clamped_region;
          Alcotest.test_case "condition at 0 is p" `Quick
            test_condition_at_zero_is_p;
          Alcotest.test_case "condition shifts, none at p = 0" `Quick
            test_condition_shifts;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_families_decreasing;
          QCheck_alcotest.to_alcotest prop_deriv_negative_in_interior;
          QCheck_alcotest.to_alcotest prop_inverse_round_trips;
          QCheck_alcotest.to_alcotest prop_eval_deriv_is_eval_and_deriv;
        ] );
    ]
