(* Greenwood confidence bands on the survival estimate and robust
   scheduling against the lower band (experiment E16's machinery). *)

(* p never rises by more than 1e-9 from one point to the next of a
   256-cell grid over [0, horizon]. *)
let decreasing_on_grid lf =
  let hi = Life_function.horizon lf in
  let at i = Life_function.eval lf (float_of_int i /. 256.0 *. hi) in
  List.for_all (fun i -> at i <= at (i - 1) +. 1e-9) (List.init 256 succ)

let observations model n seed =
  let rng = Prng.create ~seed in
  Array.init n (fun _ ->
      { Owner_model.duration = Owner_model.sample model rng; observed = true })

let test_greenwood_zero_at_no_censoring_start () =
  (* First event of n samples: S = 1 - 1/n, Var = S^2 * (1/(n(n-1))). *)
  let steps =
    Stats.kaplan_meier_greenwood [| (1.0, true); (2.0, true); (3.0, true) |]
  in
  let _, s, sd = steps.(0) in
  Alcotest.(check (float 1e-12)) "S after first event" (2.0 /. 3.0) s;
  let expected = (2.0 /. 3.0) *. sqrt (1.0 /. 6.0) in
  Alcotest.(check (float 1e-12)) "Greenwood sd" expected sd

let test_greenwood_variance_grows_along_curve () =
  let obs = observations (Owner_model.Exponential_absence { mean = 10.0 }) 200 1L in
  let steps =
    Stats.kaplan_meier_greenwood
      (Array.map (fun o -> (o.Owner_model.duration, o.Owner_model.observed)) obs)
  in
  (* Greenwood's cumulative sum makes the *relative* sd nondecreasing. *)
  let rel (_, s, sd) = if s > 0.0 then sd /. s else infinity in
  let n = Array.length steps in
  Alcotest.(check bool) "relative sd grows" true
    (rel steps.(n / 4) <= rel steps.(n / 2) +. 1e-12
    && rel steps.(n / 2) <= rel steps.(3 * n / 4) +. 1e-12)

let test_bands_ordered () =
  let obs = observations (Owner_model.Uniform_absence { max = 30.0 }) 150 2L in
  let b = Survival.confidence_bands obs in
  let hi = Life_function.horizon b.Survival.point in
  for i = 1 to 63 do
    let t = float_of_int i /. 64.0 *. hi in
    let l = Life_function.eval b.Survival.lower t in
    let p = Life_function.eval b.Survival.point t in
    let u = Life_function.eval b.Survival.upper t in
    if not (l <= p +. 0.02 && p <= u +. 0.02) then
      Alcotest.failf "bands out of order at t=%g: %g %g %g" t l p u
  done

let test_bands_are_valid_life_functions () =
  let obs = observations (Owner_model.Uniform_absence { max = 30.0 }) 80 3L in
  let b = Survival.confidence_bands obs in
  List.iter
    (fun lf ->
      Alcotest.(check bool)
        (Life_function.name lf ^ " monotone")
        true
        (decreasing_on_grid lf))
    [ b.Survival.lower; b.Survival.point; b.Survival.upper ]

let test_bands_contain_truth_mostly () =
  let truth = Families.exponential ~rate:0.1 in
  let obs = observations (Owner_model.Exponential_absence { mean = 10.0 }) 400 4L in
  let b = Survival.confidence_bands ~z:1.96 obs in
  let hi = Life_function.quantile_time truth ~q:0.05 in
  let inside = ref 0 and total = ref 0 in
  for i = 1 to 50 do
    let t = float_of_int i /. 51.0 *. hi in
    incr total;
    let v = Life_function.eval truth t in
    if
      v >= Life_function.eval b.Survival.lower t -. 0.02
      && v <= Life_function.eval b.Survival.upper t +. 0.02
    then incr inside
  done;
  Alcotest.(check bool)
    (Printf.sprintf "truth inside bands at %d/%d probes" !inside !total)
    true
    (float_of_int !inside /. float_of_int !total >= 0.9)

let test_z_zero_collapses_bands () =
  let obs = observations (Owner_model.Uniform_absence { max = 20.0 }) 60 5L in
  let b = Survival.confidence_bands ~z:0.0 obs in
  let hi = Life_function.horizon b.Survival.point in
  for i = 1 to 20 do
    let t = float_of_int i /. 21.0 *. hi in
    Alcotest.(check (float 1e-9)) "lower = point"
      (Life_function.eval b.Survival.point t)
      (Life_function.eval b.Survival.lower t)
  done

let test_bands_validation () =
  (match Survival.confidence_bands [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  let obs = observations (Owner_model.Uniform_absence { max = 5.0 }) 10 6L in
  match Survival.confidence_bands ~z:(-1.0) obs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative z accepted"

let test_lower_band_plans_pessimistically () =
  (* Pointwise lower survival lowers E(S) for every schedule, hence also
     the maximised planner value: the pessimistic plan promises less. *)
  let obs = observations (Owner_model.Uniform_absence { max = 60.0 }) 60 7L in
  let b = Survival.confidence_bands obs in
  let c = 1.0 in
  let plan_lower = Guideline.plan b.Survival.lower ~c in
  let plan_point = Guideline.plan b.Survival.point ~c in
  Alcotest.(check bool) "lower-band value <= point value" true
    (plan_lower.Guideline.expected_work
    <= plan_point.Guideline.expected_work +. 1e-6)

let prop_bands_widen_with_z =
  QCheck.Test.make ~name:"larger z gives a lower lower-band" ~count:10
    QCheck.(int_range 30 200)
    (fun n ->
      let obs =
        observations (Owner_model.Exponential_absence { mean = 8.0 }) n
          (Int64.of_int (n * 13))
      in
      let b1 = Survival.confidence_bands ~z:1.0 obs in
      let b3 = Survival.confidence_bands ~z:3.0 obs in
      let hi = 0.8 *. Life_function.horizon b1.Survival.point in
      let ok = ref true in
      for i = 1 to 20 do
        let t = float_of_int i /. 21.0 *. hi in
        if
          Life_function.eval b3.Survival.lower t
          > Life_function.eval b1.Survival.lower t +. 0.03
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "confidence_bands"
    [
      ( "confidence_bands",
        [
          Alcotest.test_case "Greenwood first event" `Quick
            test_greenwood_zero_at_no_censoring_start;
          Alcotest.test_case "relative sd grows" `Quick
            test_greenwood_variance_grows_along_curve;
          Alcotest.test_case "bands ordered" `Quick test_bands_ordered;
          Alcotest.test_case "bands valid life functions" `Quick
            test_bands_are_valid_life_functions;
          Alcotest.test_case "bands contain truth" `Quick
            test_bands_contain_truth_mostly;
          Alcotest.test_case "z = 0 collapses" `Quick
            test_z_zero_collapses_bands;
          Alcotest.test_case "validation" `Quick test_bands_validation;
          Alcotest.test_case "lower band pessimistic value" `Quick
            test_lower_band_plans_pessimistically;
          QCheck_alcotest.to_alcotest prop_bands_widen_with_z;
        ] );
    ]
