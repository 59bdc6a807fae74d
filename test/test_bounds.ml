let feq ?(eps = 1e-6) a b = Alcotest.(check (float eps)) "value" a b

(* --- exponential: everything is available in closed form -------------- *)

let test_lower_t0_exponential_closed_form () =
  (* For p = a^{-t}, p/p' = -1/ln a is constant, so the Thm 3.2 fixed point
     is explicit: sqrt(c^2/4 + c/ln a) + c/2. *)
  let a = exp 0.1 and c = 1.0 in
  let lf = Families.geometric_decreasing ~a in
  feq (Closed_forms.geo_dec_t0_lower ~a ~c) (Bounds.lower_t0 lf ~c)

let test_upper_t0_exponential_closed_form () =
  (* 2*sqrt(c^2/4 + c/ln a) + c for the convex bound. *)
  let a = exp 0.1 and c = 1.0 in
  let lf = Families.geometric_decreasing ~a in
  let expected =
    (2.0 *. sqrt ((c *. c /. 4.0) +. (c /. log a))) +. c
  in
  feq ~eps:1e-4 expected (Bounds.upper_t0_convex lf ~c)

(* --- uniform: verify against direct algebra --------------------------- *)

let test_lower_t0_uniform_algebra () =
  (* For p = 1 - t/L: -p/p' = L - t, so the fixed point solves
     t - c/2 = sqrt(c^2/4 + c(L - t)). Verify the residual vanishes. *)
  let c = 1.0 and l = 100.0 in
  let lf = Families.uniform ~lifespan:l in
  let t = Bounds.lower_t0 lf ~c in
  let residual =
    t -. (c /. 2.0) -. sqrt ((c *. c /. 4.0) +. (c *. (l -. t)))
  in
  feq ~eps:1e-6 0.0 residual;
  (* And it is close to the paper's simplified sqrt(cL) form. *)
  Alcotest.(check bool) "near sqrt(cL)" true (Float.abs (t -. 10.0) < 1.5)

(* --- bracketing of the true optimum ----------------------------------- *)

let bracket_contains lf ~c t0 =
  let lo, hi = Bounds.bracket lf ~c in
  t0 >= lo -. 1e-6 && t0 <= hi +. 1e-6

let test_bracket_contains_optimal_uniform () =
  let c = 1.0 and l = 100.0 in
  let lf = Families.uniform ~lifespan:l in
  let exact = Exact.uniform ~c ~lifespan:l in
  Alcotest.(check bool) "optimal t0 in bracket" true
    (bracket_contains lf ~c exact.Exact.t0)

let test_bracket_contains_optimal_geo_dec () =
  let a = exp 0.05 and c = 1.0 in
  let lf = Families.geometric_decreasing ~a in
  let t_star = Closed_forms.geo_dec_t_optimal ~a ~c in
  Alcotest.(check bool) "optimal t* in bracket" true
    (bracket_contains lf ~c t_star)

let test_bracket_contains_optimal_geo_inc () =
  let c = 1.0 and l = 30.0 in
  let lf = Families.geometric_increasing ~lifespan:l in
  let o = Optimizer.optimal_schedule lf ~c in
  Alcotest.(check bool) "optimizer t0 in bracket" true
    (bracket_contains lf ~c (Schedule.period o.Optimizer.schedule 0))

let test_bracket_width_factor_2ish () =
  (* §6: the bounds "usually still leave one with a factor-of-2
     uncertainty" — the bracket should not be wildly wider than that. *)
  let c = 1.0 in
  List.iter
    (fun lf ->
      let lo, hi = Bounds.bracket lf ~c in
      Alcotest.(check bool)
        (Printf.sprintf "width %s: [%g, %g]" (Life_function.name lf) lo hi)
        true
        (hi /. lo <= 4.0))
    [
      Families.uniform ~lifespan:100.0;
      Families.polynomial ~d:2 ~lifespan:100.0;
      Families.geometric_increasing ~lifespan:30.0;
    ]

let test_bracket_nonempty_always () =
  List.iter
    (fun (name, lf) ->
      let lo, hi = Bounds.bracket lf ~c:1.0 in
      Alcotest.(check bool) (name ^ " nonempty") true (lo < hi && lo > 0.0))
    (Families.all_paper_scenarios ~c:1.0)

let test_bracket_unknown_shape_falls_back () =
  (* Strip the shape certificate: the bracket must widen to the horizon. *)
  let lf =
    Life_function.make ~name:"unknown-uniform"
      ~support:(Life_function.Bounded 100.0)
      (fun t -> 1.0 -. (t /. 100.0))
  in
  let _, hi = Bounds.bracket lf ~c:1.0 in
  feq ~eps:1e-6 100.0 hi

(* --- scan resolution by shape ------------------------------------------- *)

(* [Bounds.bracket] rebuilt with a 512-cell sign-change scan for every
   shape: the reference the 32-cell scan on certified shapes must match. *)
let reference_bracket lf ~c =
  let hi = Life_function.horizon lf in
  let radical ~deriv_at t =
    let dp = Life_function.deriv lf deriv_at in
    if dp >= 0.0 then infinity
    else sqrt ((c *. c /. 4.0) -. (c *. Life_function.eval lf t /. dp))
  in
  let crossings g =
    let cells = 512 in
    let lo = c *. (1.0 +. 1e-9) in
    let h = (hi -. lo) /. float_of_int cells in
    let found = ref [] in
    let prev = ref (g lo) in
    for i = 1 to cells do
      let x = lo +. (float_of_int i *. h) in
      let v = g x in
      if (!prev <= 0.0 && v > 0.0) || (!prev >= 0.0 && v < 0.0) then
        found := (Rootfind.brent g ~lo:(x -. h) ~hi:x).Rootfind.root :: !found;
      prev := v
    done;
    List.rev !found
  in
  let lower =
    match
      crossings (fun t ->
          let r = radical ~deriv_at:t t in
          if Float.is_finite r then t -. r -. (c /. 2.0) else neg_infinity)
    with
    | t :: _ -> t
    | [] -> c
  in
  let upper deriv_of =
    match
      List.rev
        (crossings (fun t ->
             let r = radical ~deriv_at:(deriv_of t) t in
             if Float.is_finite r then t -. (2.0 *. r) -. c else neg_infinity))
    with
    | t :: _ -> Float.max (2.0 *. c) t
    | [] -> hi
  in
  let lower = Float.max lower (c *. (1.0 +. 1e-12)) in
  let upper =
    match Life_function.shape lf with
    | Life_function.Convex -> upper Fun.id
    | Life_function.Concave -> upper (fun t -> t /. 2.0)
    | Life_function.Linear ->
        Float.min (upper Fun.id) (upper (fun t -> t /. 2.0))
    | Life_function.Log_concave | Life_function.Unknown -> hi
  in
  let upper = Float.min upper hi in
  if upper <= lower then (lower, Float.min (2.0 *. lower) hi) else (lower, upper)

let test_coarse_scan_matches_reference () =
  let g = Prng.create ~seed:16L in
  let range lo hi = Prng.float_range g ~lo ~hi in
  for _ = 1 to 300 do
    let lf =
      match Prng.int g ~bound:6 with
      | 0 -> Families.uniform ~lifespan:(range 10.0 300.0)
      | 1 ->
          Families.polynomial ~d:(2 + Prng.int g ~bound:4)
            ~lifespan:(range 10.0 300.0)
      | 2 -> Families.geometric_decreasing ~a:(exp (range 0.005 0.2))
      | 3 -> Families.exponential ~rate:(range 0.005 0.2)
      | 4 -> Families.geometric_increasing ~lifespan:(range 5.0 80.0)
      | _ -> Families.weibull ~shape:(range 0.3 3.0) ~scale:(range 10.0 300.0)
    in
    let lf =
      if Prng.int g ~bound:3 = 0 then
        Families.scale_time ~factor:(range 0.1 10.0) lf
      else lf
    in
    let c = Life_function.horizon lf *. exp (range (log 1e-3) (log 0.4)) in
    let lo, hi = Bounds.bracket lf ~c in
    let ref_lo, ref_hi = reference_bracket lf ~c in
    let close a b = Float.abs (a -. b) <= 1e-12 *. Float.abs b in
    if not (close lo ref_lo && close hi ref_hi) then
      Alcotest.failf "%s, c=%g: bracket [%.17g, %.17g], reference [%.17g, %.17g]"
        (Life_function.name lf) c lo hi ref_lo ref_hi
  done

(* --- validation ------------------------------------------------------- *)

let test_domain_guards () =
  let lf = Families.uniform ~lifespan:10.0 in
  (match Bounds.lower_t0 lf ~c:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 accepted");
  match Bounds.bracket lf ~c:11.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c >= L accepted"

(* --- corollary 5.x bounds --------------------------------------------- *)

let test_cor_5_5_lower () =
  feq
    (sqrt (1.0 *. 100.0 /. 2.0) +. 0.75)
    (Bounds.lower_t0_concave_lifespan ~c:1.0 ~lifespan:100.0)

let test_cor_5_4_lower_given_m () =
  (* L/m + (m-1)c/2 with L=100, m=14, c=1 = 7.142857 + 6.5 *)
  feq
    ((100.0 /. 14.0) +. 6.5)
    (Bounds.lower_t0_concave_periods ~c:1.0 ~lifespan:100.0 ~m:14)

let test_cor_5_3_period_bound () =
  (* ceil(sqrt(200 + 0.25) + 0.5) = ceil(14.65) = 15 *)
  Alcotest.(check int) "bound" 15
    (Bounds.max_periods_concave ~c:1.0 ~lifespan:100.0)

(* Past the int range, and where 2L/c overflows, the bound saturates
   instead of wrapping; L/c is formed first, so a huge L over a huge c
   still gets its finite bound. *)
let test_cor_5_3_saturates () =
  List.iter
    (fun (c, lifespan, want) ->
      Alcotest.(check int)
        (Printf.sprintf "L = %g, c = %g" lifespan c)
        want
        (Bounds.max_periods_concave ~c ~lifespan))
    [
      (1.0, 1e10, 141422);
      (1.0, 1e200, max_int);
      (1.0, 1e308, max_int);
      (1e-300, 100.0, max_int);
      (1e300, 1e308, 14143);
    ]

let test_cor_5_3_validation () =
  match Bounds.max_periods_concave ~c:0.0 ~lifespan:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 accepted"

let test_exact_uniform_t0_satisfies_cor_5_4 () =
  let c = 1.0 and l = 100.0 in
  let exact = Exact.uniform ~c ~lifespan:l in
  let m = Schedule.num_periods exact.Exact.schedule in
  Alcotest.(check bool) "Cor 5.4 holds with equality for uniform" true
    (exact.Exact.t0
    >= Bounds.lower_t0_concave_periods ~c ~lifespan:l ~m -. 1e-9)

let prop_lower_below_upper =
  QCheck.Test.make ~name:"lower bound <= shape upper bound" ~count:60
    QCheck.(pair (float_range 0.2 2.0) (float_range 20.0 300.0))
    (fun (c, l) ->
      let checks =
        [
          (let lf = Families.uniform ~lifespan:l in
           Bounds.lower_t0 lf ~c
           <= Float.min (Bounds.upper_t0_convex lf ~c)
                (Bounds.upper_t0_concave lf ~c)
              +. 1e-6);
          (let lf = Families.polynomial ~d:2 ~lifespan:l in
           Bounds.lower_t0 lf ~c <= Bounds.upper_t0_concave lf ~c +. 1e-6);
        ]
      in
      List.for_all Fun.id checks)

let prop_optimizer_t0_in_bracket_uniform =
  QCheck.Test.make
    ~name:"independent optimizer's t0 falls inside the Thm 3.2/3.3 bracket"
    ~count:12
    QCheck.(pair (float_range 0.5 1.5) (float_range 40.0 120.0))
    (fun (c, l) ->
      let lf = Families.uniform ~lifespan:l in
      let o = Optimizer.optimal_schedule lf ~c in
      bracket_contains lf ~c (Schedule.period o.Optimizer.schedule 0))

let () =
  Alcotest.run "bounds"
    [
      ( "fixed-points",
        [
          Alcotest.test_case "exp lower closed form" `Quick
            test_lower_t0_exponential_closed_form;
          Alcotest.test_case "exp upper closed form" `Quick
            test_upper_t0_exponential_closed_form;
          Alcotest.test_case "uniform lower algebra" `Quick
            test_lower_t0_uniform_algebra;
        ] );
      ( "bracketing",
        [
          Alcotest.test_case "contains optimal (uniform)" `Quick
            test_bracket_contains_optimal_uniform;
          Alcotest.test_case "contains optimal (geo-dec)" `Quick
            test_bracket_contains_optimal_geo_dec;
          Alcotest.test_case "contains optimal (geo-inc)" `Quick
            test_bracket_contains_optimal_geo_inc;
          Alcotest.test_case "factor-2ish width" `Quick
            test_bracket_width_factor_2ish;
          Alcotest.test_case "nonempty for all scenarios" `Quick
            test_bracket_nonempty_always;
          Alcotest.test_case "unknown shape fallback" `Quick
            test_bracket_unknown_shape_falls_back;
          Alcotest.test_case "32-cell scan = 512-cell reference" `Quick
            test_coarse_scan_matches_reference;
          Alcotest.test_case "domain guards" `Quick test_domain_guards;
        ] );
      ( "corollaries-5.x",
        [
          Alcotest.test_case "Cor 5.5 lower" `Quick test_cor_5_5_lower;
          Alcotest.test_case "Cor 5.4 lower given m" `Quick
            test_cor_5_4_lower_given_m;
          Alcotest.test_case "Cor 5.3 period bound" `Quick
            test_cor_5_3_period_bound;
          Alcotest.test_case "Cor 5.3 bound saturates" `Quick
            test_cor_5_3_saturates;
          Alcotest.test_case "Cor 5.3 validation" `Quick
            test_cor_5_3_validation;
          Alcotest.test_case "uniform t0 meets Cor 5.4" `Quick
            test_exact_uniform_t0_satisfies_cor_5_4;
          QCheck_alcotest.to_alcotest prop_lower_below_upper;
          QCheck_alcotest.to_alcotest prop_optimizer_t0_in_bracket_uniform;
        ] );
    ]
