let feq ?(eps = 1e-9) a b = Alcotest.(check (float eps)) "value" a b

(* --- next_period against the closed forms of §4 ---------------------- *)

(* §4's explicit forms of eq. 3.6, the paper's own formulas.
   §4.1, p = 1 − t^d/L^d:
   t_k = ((1 + d·(t_{k−1} − c)/T_{k−1})^{1/d} − 1)·T_{k−1}. *)
let poly_next_period ~d ~t_prev ~t_end_prev ~c =
  let df = float_of_int d in
  let ratio = 1.0 +. (df *. (t_prev -. c) /. t_end_prev) in
  (Float.pow ratio (1.0 /. df) -. 1.0) *. t_end_prev

(* §4.2 eq. 4.6, p = a^{−t}: a^{−t_k} = 1 + (c − t_{k−1})·ln a;
   [None] once the right-hand side leaves (0, 1]. *)
let geo_dec_next_period ~a ~t_prev ~c =
  let lna = log a in
  let rhs = 1.0 +. ((c -. t_prev) *. lna) in
  if rhs <= 0.0 || rhs > 1.0 then None else Some (-.log rhs /. lna)

(* §4.3 eq. 4.7, p = (2^L − 2^t)/(2^L − 1):
   t_k = log₂((t_{k−1} − c)·ln 2 + 1); [None] when the argument is
   <= 1. *)
let geo_inc_next_period ~t_prev ~c =
  let arg = ((t_prev -. c) *. log 2.0) +. 1.0 in
  if arg <= 1.0 then None else Some (Special.log2 arg)

let test_uniform_recurrence_is_decrement () =
  (* §4.1 eq. (4.1): for p = 1 - t/L, the recurrence gives exactly
     t_k = t_{k-1} - c. *)
  let lf = Families.uniform ~lifespan:100.0 in
  match Recurrence.next_period lf ~c:1.0 ~prev_period:10.0 ~prev_end:10.0 with
  | Some t -> feq 9.0 t
  | None -> Alcotest.fail "expected a next period"

let test_uniform_recurrence_deep_chain () =
  let lf = Families.uniform ~lifespan:100.0 in
  let t = ref 12.0 and elapsed = ref 12.0 in
  for _ = 1 to 5 do
    match
      Recurrence.next_period lf ~c:1.0 ~prev_period:!t ~prev_end:!elapsed
    with
    | Some next ->
        feq ~eps:1e-9 (!t -. 1.0) next;
        elapsed := !elapsed +. next;
        t := next
    | None -> Alcotest.fail "chain broke early"
  done

let test_geo_dec_recurrence_matches_closed_form () =
  (* §4.2 eq. (4.6): a^{-t_k} = 1 + (c - t_{k-1}) ln a. *)
  let a = exp 0.1 in
  let lf = Families.geometric_decreasing ~a in
  let t_prev = 5.0 in
  (match Recurrence.next_period lf ~c:1.0 ~prev_period:t_prev ~prev_end:12.0 with
  | Some t -> (
      match geo_dec_next_period ~a ~t_prev ~c:1.0 with
      | Some expected -> feq ~eps:1e-7 expected t
      | None -> Alcotest.fail "closed form should exist")
  | None -> Alcotest.fail "expected a next period");
  (* The recurrence for a^{-t} is translation invariant: same result from a
     different elapsed time. *)
  match Recurrence.next_period lf ~c:1.0 ~prev_period:t_prev ~prev_end:40.0 with
  | Some t2 -> (
      match Recurrence.next_period lf ~c:1.0 ~prev_period:t_prev ~prev_end:12.0 with
      | Some t1 -> feq ~eps:1e-6 t1 t2
      | None -> Alcotest.fail "t1 missing")
  | None -> Alcotest.fail "t2 missing"

let test_geo_inc_recurrence_matches_closed_form () =
  (* §4.3 eq. (4.7): t_{k+1} = log2((t_k - c) ln 2 + 1). *)
  let lf = Families.geometric_increasing ~lifespan:30.0 in
  let t_prev = 5.0 in
  match Recurrence.next_period lf ~c:1.0 ~prev_period:t_prev ~prev_end:10.0 with
  | Some t -> (
      match geo_inc_next_period ~t_prev ~c:1.0 with
      | Some expected -> feq ~eps:1e-7 expected t
      | None -> Alcotest.fail "closed form should exist")
  | None -> Alcotest.fail "expected a next period"

let test_polynomial_recurrence_matches_closed_form () =
  let d = 3 in
  let lf = Families.polynomial ~d ~lifespan:50.0 in
  let t_prev = 8.0 and t_end_prev = 20.0 in
  match
    Recurrence.next_period lf ~c:1.0 ~prev_period:t_prev ~prev_end:t_end_prev
  with
  | Some t ->
      feq ~eps:1e-7
        (poly_next_period ~d ~t_prev ~t_end_prev ~c:1.0)
        t
  | None -> Alcotest.fail "expected a next period"

let test_unproductive_prev_stops () =
  (* prev_period <= c makes rhs >= p(T): no positive solution. *)
  let lf = Families.uniform ~lifespan:100.0 in
  Alcotest.(check bool) "no continuation" true
    (Recurrence.next_period lf ~c:1.0 ~prev_period:0.5 ~prev_end:10.0 = None)

let test_exhausted_support_stops () =
  (* A huge period near the end of life: rhs <= 0. *)
  let lf = Families.uniform ~lifespan:100.0 in
  Alcotest.(check bool) "no continuation" true
    (Recurrence.next_period lf ~c:1.0 ~prev_period:90.0 ~prev_end:95.0 = None);
  (* A caller-built unbounded p that never drops below 0.5: once rhs falls
     under the floor, p⁻¹ rhs is infinity, and the schedule ends there
     instead of taking it as a period. *)
  let floor =
    Life_function.make ~validate:false ~name:"floor at 0.5"
      ~support:Life_function.Unbounded
      (fun t -> 0.5 +. (0.5 *. exp (-.t)))
  in
  Alcotest.(check bool) "p never drops to 0.25" true
    (Float.equal infinity (Life_function.inverse floor 0.25));
  List.iter
    (fun t0 ->
      let g = Recurrence.generate floor ~c:0.5 ~t0 in
      Alcotest.(check bool) "stops at the floor" true
        (g.Recurrence.stop = Recurrence.Exhausted_support);
      Array.iter
        (fun t ->
          if not (Float.is_finite t) then
            Alcotest.failf "t0 = %g: period %g" t0 t)
        (Schedule.periods g.Recurrence.schedule))
    [ 1.2; 3.0 ]

let test_next_period_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  (match Recurrence.next_period lf ~c:(-1.0) ~prev_period:1.0 ~prev_end:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted");
  match Recurrence.next_period lf ~c:1.0 ~prev_period:0.0 ~prev_end:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero prev_period accepted"

(* --- generate -------------------------------------------------------- *)

let test_generate_uniform_structure () =
  (* From the optimal t0, generation must reproduce the arithmetic optimal
     schedule of [3]. *)
  let c = 1.0 and l = 100.0 in
  let lf = Families.uniform ~lifespan:l in
  let exact = Exact.uniform ~c ~lifespan:l in
  let g = Recurrence.generate lf ~c ~t0:exact.Exact.t0 in
  (* The final exact period has length < c and carries no work; whether the
     recurrence emits it depends on roundoff at rhs = 0, so compare the
     common productive prefix. *)
  let n =
    Int.min
      (Schedule.num_periods g.Recurrence.schedule)
      (Schedule.num_periods exact.Exact.schedule)
  in
  Alcotest.(check bool) "long common prefix" true
    (n >= Schedule.num_periods exact.Exact.schedule - 1);
  Alcotest.(check bool) "matches exact schedule" true
    (Schedule.equal ~tol:1e-6
       (Schedule.of_periods (Array.sub (Schedule.periods g.Recurrence.schedule) 0 n))
       (Schedule.of_periods (Array.sub (Schedule.periods exact.Exact.schedule) 0 n)))

let test_generate_geo_dec_equal_periods () =
  (* From t*, all generated periods are equal (the [3] structure). *)
  let a = exp 0.05 and c = 1.0 in
  let lf = Families.geometric_decreasing ~a in
  let t_star = Closed_forms.geo_dec_t_optimal ~a ~c in
  let g = Recurrence.generate lf ~c ~t0:t_star in
  let ps = Schedule.periods g.Recurrence.schedule in
  Alcotest.(check bool) "many periods" true (Array.length ps > 10);
  (* t* is a repelling fixed point of the recurrence (multiplier a^{t*}),
     so roundoff drift is amplified exponentially; the early periods must
     sit on t*, the far tail may wander. *)
  Array.iteri (fun i t -> if i < 20 then feq ~eps:1e-6 t_star t) ps

let test_generate_stops_with_reason () =
  let lf = Families.uniform ~lifespan:100.0 in
  let g = Recurrence.generate lf ~c:1.0 ~t0:13.0 in
  Alcotest.(check bool) "terminates" true
    (match g.Recurrence.stop with
    | Recurrence.Exhausted_support | Recurrence.Unproductive
    | Recurrence.Tail_negligible | Recurrence.Period_cap ->
        true)

let test_generate_period_cap () =
  let lf = Families.geometric_decreasing ~a:(exp 0.001) in
  let g = Recurrence.generate ~max_periods:5 lf ~c:0.1 ~t0:50.0 in
  Alcotest.(check int) "capped" 5 (Schedule.num_periods g.Recurrence.schedule);
  Alcotest.(check bool) "cap reason" true
    (g.Recurrence.stop = Recurrence.Period_cap)

let test_generate_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  match Recurrence.generate lf ~c:1.0 ~t0:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "t0 = 0 accepted"

(* --- expected_work_at -------------------------------------------------- *)

(* A trace fit, built once: the one p here with no declared shape. *)
let fitted =
  lazy
    (let model =
       Owner_model.Day_night
         { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 }
     in
     Owner_model.collect ~censor_at:960.0 model (Prng.create ~seed:4L) ~n:400
     |> Survival.of_observations)

(* A p, a c and a t0 in the Thm 3.2/3.3 bracket, from [seed]. *)
let scored_scenario seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let range lo hi = Prng.float_range g ~lo ~hi in
  let lf =
    match Prng.int g ~bound:8 with
    | 0 -> Families.uniform ~lifespan:(range 10.0 300.0)
    | 1 ->
        Families.polynomial ~d:(2 + Prng.int g ~bound:4)
          ~lifespan:(range 10.0 300.0)
    | 2 -> Families.geometric_decreasing ~a:(exp (range 0.005 0.2))
    | 3 -> Families.exponential ~rate:(range 0.005 0.2)
    | 4 -> Families.geometric_increasing ~lifespan:(range 5.0 80.0)
    | 5 -> Families.weibull ~shape:(range 0.3 3.0) ~scale:(range 10.0 300.0)
    | 6 -> Families.power_law ~d:(range 1.0 3.0)
    | _ -> (Lazy.force fitted).Survival.life
  in
  let lf =
    if Prng.int g ~bound:3 = 0 then
      Families.scale_time ~factor:(range 0.1 10.0) lf
    else lf
  in
  let c = Life_function.horizon lf *. exp (range (log 1e-3) (log 0.4)) in
  let lo, hi = Bounds.bracket lf ~c in
  (lf, c, range lo hi)

let prop_expected_work_at_is_bit_identical =
  QCheck.Test.make
    ~name:"expected_work_at = Schedule.expected_work of generate, bitwise"
    ~count:300
    (QCheck.make
       ~print:(fun seed ->
         let lf, c, t0 = scored_scenario seed in
         Printf.sprintf "%s, c=%g, t0=%h" (Life_function.name lf) c t0)
       QCheck.Gen.nat)
    (fun seed ->
      let lf, c, t0 = scored_scenario seed in
      let g = Recurrence.generate lf ~c ~t0 in
      Int64.equal
        (Int64.bits_of_float (Recurrence.expected_work_at lf ~c ~t0))
        (Int64.bits_of_float
           (Schedule.expected_work ~c lf g.Recurrence.schedule)))

let prop_score_slope_is_g =
  QCheck.Test.make
    ~name:"score's G = p(T_m) + (t_m - c) p'(T_m) at generate's last end, bitwise"
    ~count:300
    (QCheck.make
       ~print:(fun seed ->
         let lf, c, t0 = scored_scenario seed in
         Printf.sprintf "%s, c=%g, t0=%h" (Life_function.name lf) c t0)
       QCheck.Gen.nat)
    (fun seed ->
      let lf, c, t0 = scored_scenario seed in
      let periods =
        Schedule.periods (Recurrence.generate lf ~c ~t0).Recurrence.schedule
      in
      (* T_m as the loop sums it: Thm 3.1's uncompensated T_k. *)
      let t_end = Array.fold_left ( +. ) 0.0 periods in
      let t_m = periods.(Array.length periods - 1) in
      let at = Life_function.point () in
      Life_function.eval_deriv lf t_end at;
      let g = at.Life_function.p +. ((t_m -. c) *. at.Life_function.dp) in
      Int64.equal
        (Int64.bits_of_float (Recurrence.score lf ~c ~t0).Recurrence.slope)
        (Int64.bits_of_float g))

let test_expected_work_at_allocates_less () =
  (* Scoring a t0 builds no schedule: at most 3/4 of the minor words of
     generate followed by Schedule.expected_work. *)
  let minor_words f =
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun (lf, t0) ->
      let c = 1.0 in
      let built =
        minor_words (fun () ->
            let g = Recurrence.generate lf ~c ~t0 in
            Schedule.expected_work ~c lf g.Recurrence.schedule)
      in
      let scored =
        minor_words (fun () -> Recurrence.expected_work_at lf ~c ~t0)
      in
      if scored > 0.75 *. built then
        Alcotest.failf "%s: %.0f minor words scored, %.0f built"
          (Life_function.name lf) scored built)
    [
      (Families.uniform ~lifespan:100.0, 13.6);
      (Families.weibull ~shape:1.5 ~scale:80.0, 12.27);
    ]

(* --- residuals ------------------------------------------------------- *)

let test_residuals_of_generated_are_zero () =
  let lf = Families.geometric_increasing ~lifespan:30.0 in
  let g = Recurrence.generate lf ~c:1.0 ~t0:20.0 in
  let res = Recurrence.residuals lf ~c:1.0 g.Recurrence.schedule in
  Array.iter (fun r -> feq ~eps:1e-8 0.0 r) res

let test_residuals_detect_violation () =
  let lf = Families.uniform ~lifespan:100.0 in
  (* Equal periods violate the decrement-by-c recurrence. *)
  let s = Schedule.of_list [ 10.0; 10.0; 10.0 ] in
  let res = Recurrence.residuals lf ~c:1.0 s in
  Alcotest.(check bool) "nonzero residual" true
    (Array.exists (fun r -> Float.abs r > 1e-6) res)

let prop_generated_schedules_satisfy_recurrence =
  QCheck.Test.make
    ~name:"generated schedules satisfy eq. 3.6 (zero residuals)" ~count:100
    QCheck.(pair (float_range 5.0 30.0) (float_range 0.2 2.0))
    (fun (t0, c) ->
      let lf = Families.uniform ~lifespan:120.0 in
      let g = Recurrence.generate lf ~c ~t0 in
      let res = Recurrence.residuals lf ~c g.Recurrence.schedule in
      Array.for_all (fun r -> Float.abs r < 1e-7) res)

let prop_uniform_periods_decrease_by_c =
  QCheck.Test.make ~name:"uniform-risk periods decrease by exactly c"
    ~count:100
    QCheck.(pair (float_range 8.0 25.0) (float_range 0.3 1.5))
    (fun (t0, c) ->
      let lf = Families.uniform ~lifespan:150.0 in
      let g = Recurrence.generate lf ~c ~t0 in
      let ps = Schedule.periods g.Recurrence.schedule in
      let ok = ref true in
      for i = 0 to Array.length ps - 2 do
        if Float.abs (ps.(i + 1) -. (ps.(i) -. c)) > 1e-6 then ok := false
      done;
      !ok)

(* --- one point per period end ------------------------------------------ *)

type counts = {
  mutable evals : int;
  mutable derivs : int;
  mutable fused : int;
  mutable invs : int;
}

(* [lf] behind closures that count every call the recurrence makes. *)
let counting n lf =
  Life_function.make ~validate:false ~name:(Life_function.name lf)
    ~support:(Life_function.support lf) ~shape:(Life_function.shape lf)
    ~dp:(fun t ->
      n.derivs <- n.derivs + 1;
      Life_function.deriv lf t)
    ~fused:(fun t pt ->
      n.fused <- n.fused + 1;
      Life_function.eval_deriv lf t pt)
    ~inv:(fun u ->
      n.invs <- n.invs + 1;
      Life_function.inverse lf u)
    (fun t ->
      n.evals <- n.evals + 1;
      Life_function.eval lf t)

let test_one_point_per_period_end () =
  (* A k-period t0 objective reads p and p' through k points and p⁻¹ at
     most k times. It evaluates p on its own only at a productive end
     where the compensated sum of the periods (Schedule's [ends]) is not
     the recurrence's plain sum. *)
  List.iter
    (fun (lf, c, t0) ->
      let s = (Recurrence.generate lf ~c ~t0).Recurrence.schedule in
      let k = Schedule.num_periods s in
      let plain = ref 0.0 and differ = ref 0 in
      Array.iteri
        (fun i t ->
          plain := !plain +. t;
          let same =
            Int64.equal
              (Int64.bits_of_float !plain)
              (Int64.bits_of_float s.Schedule.ends.(i))
          in
          if t > c && not same then incr differ)
        s.Schedule.periods;
      let n = { evals = 0; derivs = 0; fused = 0; invs = 0 } in
      let e = Recurrence.expected_work_at (counting n lf) ~c ~t0 in
      let name = Life_function.name lf in
      Alcotest.(check int64) (name ^ " E")
        (Int64.bits_of_float (Schedule.expected_work ~c lf s))
        (Int64.bits_of_float e);
      Alcotest.(check int) (name ^ " points") k n.fused;
      Alcotest.(check bool) (name ^ " inverses <= k") true (n.invs <= k);
      Alcotest.(check int) (name ^ " other p calls") !differ n.evals;
      Alcotest.(check int) (name ^ " other p' calls") 0 n.derivs)
    [
      (Families.uniform ~lifespan:100.0, 1.0, 13.6);
      (Families.polynomial ~d:3 ~lifespan:80.0, 1.0, 20.0);
      (Families.geometric_decreasing ~a:(exp 0.05), 1.0, 6.0);
      (Families.geometric_increasing ~lifespan:30.0, 1.0, 5.0);
      (Families.weibull ~shape:1.5 ~scale:80.0, 1.0, 12.27);
      (Families.weibull ~shape:0.8 ~scale:60.0, 1.0, 10.0);
      (Families.scale_time ~factor:3.0 (Families.exponential ~rate:0.03), 2.0, 30.0);
    ]

(* A caller-built bounded p given without [?dp] and [?inv], from [seed]:
   its derivative is the support-aware difference, which raises beyond
   L, and its inverse is Brent's, whose ends can land on L. *)
let opaque_scenario seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let range lo hi = Prng.float_range g ~lo ~hi in
  let l = range 5.0 300.0 in
  let d = range 0.6 4.0 in
  let p =
    match Prng.int g ~bound:3 with
    | 0 -> fun t -> 1.0 -. Float.pow (t /. l) d
    | 1 -> fun t -> Float.pow (1.0 -. (t /. l)) d
    | _ -> fun t -> (1.0 -. (t /. l)) *. exp (-.d *. t /. l)
  in
  let lf =
    Life_function.make ~validate:false
      ~name:(Printf.sprintf "opaque(L=%g, d=%g)" l d)
      ~support:(Life_function.Bounded l) p
  in
  (lf, l *. exp (range (log 1e-3) (log 0.3)))

let test_opaque_bounded_plans_never_raise () =
  (* The loop takes p' only where p >= 1e-15, inside the support, as it
     did when it evaluated p and p' apart. *)
  for seed = 0 to 299 do
    let lf, c = opaque_scenario seed in
    match Guideline.plan lf ~c with
    | r ->
        if not (r.Guideline.expected_work >= 0.0) then
          Alcotest.failf "%s, c=%g: E = %g" (Life_function.name lf) c
            r.Guideline.expected_work
    | exception e ->
        Alcotest.failf "%s, c=%g: %s" (Life_function.name lf) c
          (Printexc.to_string e)
  done

let () =
  Alcotest.run "recurrence"
    [
      ( "next-period",
        [
          Alcotest.test_case "uniform = decrement (4.1)" `Quick
            test_uniform_recurrence_is_decrement;
          Alcotest.test_case "uniform chain" `Quick
            test_uniform_recurrence_deep_chain;
          Alcotest.test_case "geo-dec matches (4.6)" `Quick
            test_geo_dec_recurrence_matches_closed_form;
          Alcotest.test_case "geo-inc matches (4.7)" `Quick
            test_geo_inc_recurrence_matches_closed_form;
          Alcotest.test_case "polynomial closed form" `Quick
            test_polynomial_recurrence_matches_closed_form;
          Alcotest.test_case "unproductive stops" `Quick
            test_unproductive_prev_stops;
          Alcotest.test_case "exhausted support stops" `Quick
            test_exhausted_support_stops;
          Alcotest.test_case "validation" `Quick test_next_period_validation;
        ] );
      ( "generate",
        [
          Alcotest.test_case "uniform reproduces exact" `Quick
            test_generate_uniform_structure;
          Alcotest.test_case "geo-dec equal periods" `Quick
            test_generate_geo_dec_equal_periods;
          Alcotest.test_case "stop reason" `Quick test_generate_stops_with_reason;
          Alcotest.test_case "period cap" `Quick test_generate_period_cap;
          Alcotest.test_case "validation" `Quick test_generate_validation;
        ] );
      ( "work-at-t0",
        [
          QCheck_alcotest.to_alcotest prop_expected_work_at_is_bit_identical;
          QCheck_alcotest.to_alcotest prop_score_slope_is_g;
          Alcotest.test_case "allocates less than generate" `Quick
            test_expected_work_at_allocates_less;
          Alcotest.test_case "one point per period end" `Quick
            test_one_point_per_period_end;
          Alcotest.test_case "caller-built bounded p never raises" `Quick
            test_opaque_bounded_plans_never_raise;
        ] );
      ( "residuals",
        [
          Alcotest.test_case "generated residuals zero" `Quick
            test_residuals_of_generated_are_zero;
          Alcotest.test_case "violations detected" `Quick
            test_residuals_detect_violation;
          QCheck_alcotest.to_alcotest prop_generated_schedules_satisfy_recurrence;
          QCheck_alcotest.to_alcotest prop_uniform_periods_decrease_by_c;
        ] );
    ]
