let feq eps a b = Alcotest.(check (float eps)) "value" a b

let test_mean () = feq 1e-12 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_mean_empty () =
  match Stats.mean [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* [2; 4; 4; 4; 5; 5; 7; 9] kept as counts of its distinct values; the
   empty slot's NaN must not be read. *)
let test_summarize () =
  let values = [| 2.0; 4.0; Float.nan; 5.0; 7.0; 9.0 |] in
  let mean, variance =
    Stats.tally_mean_variance ~counts:[| 1; 3; 0; 2; 1; 1 |]
      ~value:(Array.get values)
  in
  feq 1e-12 5.0 mean;
  (* sample variance with n-1: sum of squared deviations = 32, / 7 *)
  feq 1e-12 (32.0 /. 7.0) variance;
  List.iter
    (fun counts ->
      match Stats.tally_mean_variance ~counts ~value:Float.of_int with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [ [||]; [| 0; 1 |]; [| 3; -1 |] ]

let test_standard_error () =
  (* For [0;2], stddev = sqrt(2), se = 1: the CI is mean ± 1.96. *)
  let mean, variance =
    Stats.tally_mean_variance ~counts:[| 1; 0; 1 |] ~value:Float.of_int
  in
  let lo, hi = Stats.ci95 ~mean ~variance ~n:2 in
  feq 1e-12 (1.0 -. 1.96) lo;
  feq 1e-12 (1.0 +. 1.96) hi

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  feq 1e-12 1.0 (Stats.quantile xs ~q:0.0);
  feq 1e-12 3.0 (Stats.quantile xs ~q:0.5);
  feq 1e-12 5.0 (Stats.quantile xs ~q:1.0);
  feq 1e-12 2.0 (Stats.quantile xs ~q:0.25);
  let ys = [| 3.5; -1.0; 8.25; 0.0; 2.0; 2.0; 7.0 |]
  and qs = [ 0.0; 0.3; 0.5; 0.95; 1.0 ] in
  Alcotest.(check (list (float 0.0))) "quantiles = quantile, bit for bit"
    (List.map (fun q -> Stats.quantile ys ~q) qs)
    (Stats.quantiles ys ~qs)

let test_quantile_interpolates () =
  feq 1e-12 1.5 (Stats.quantile [| 1.0; 2.0 |] ~q:0.5)

let test_quantile_validation () =
  match Stats.quantile [| 1.0 |] ~q:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_ecdf_survival () =
  let s = Stats.ecdf_survival [| 1.0; 2.0; 2.0; 3.0 |] in
  Alcotest.(check int) "distinct points" 3 (Array.length s);
  let t0, p0 = s.(0) in
  feq 1e-12 1.0 t0;
  feq 1e-12 0.75 p0;
  let t1, p1 = s.(1) in
  feq 1e-12 2.0 t1;
  feq 1e-12 0.25 p1;
  let t2, p2 = s.(2) in
  feq 1e-12 3.0 t2;
  feq 1e-12 0.0 p2

let test_kaplan_meier_no_censoring_matches_ecdf () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let km = Stats.kaplan_meier (Array.map (fun x -> (x, true)) xs) in
  let ecdf = Stats.ecdf_survival xs in
  Alcotest.(check int) "same length" (Array.length ecdf) (Array.length km);
  Array.iteri
    (fun i (t, s) ->
      let t', s' = ecdf.(i) in
      feq 1e-12 t' t;
      feq 1e-12 s' s)
    km

let test_kaplan_meier_with_censoring () =
  (* Events at 1 and 3; censored at 2. At t=1: S = 3/4... wait n=4:
     obs: (1,true) (2,false) (3,true) (4,true).
     t=1: at risk 4, 1 event -> S = 0.75
     t=2: censored, no step
     t=3: at risk 2, 1 event -> S = 0.375
     t=4: at risk 1, 1 event -> S = 0. *)
  let km =
    Stats.kaplan_meier [| (1.0, true); (2.0, false); (3.0, true); (4.0, true) |]
  in
  Alcotest.(check int) "steps" 3 (Array.length km);
  feq 1e-12 0.75 (snd km.(0));
  feq 1e-12 0.375 (snd km.(1));
  feq 1e-12 0.0 (snd km.(2))

let test_survival_non_finite_rejected () =
  (* A NaN among the times used to stall the tie-collapsing loops, whose
     [sorted.(j) = x] test is false for NaN. *)
  List.iter
    (fun bad ->
      let xs = Array.init 10 (fun i -> if i = 4 then bad else float_of_int i) in
      let pairs = Array.map (fun x -> (x, true)) xs in
      let rejects name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s accepted %g" name bad
      in
      rejects "ecdf_survival" (fun () -> ignore (Stats.ecdf_survival xs));
      rejects "kaplan_meier" (fun () -> ignore (Stats.kaplan_meier pairs));
      rejects "kaplan_meier_greenwood" (fun () ->
          ignore (Stats.kaplan_meier_greenwood pairs)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_rmse () =
  let predicted = [| 1.0; 2.0; 3.0 |] and actual = [| 1.0; 2.0; 7.0 |] in
  feq 1e-12 (4.0 /. sqrt 3.0) (Stats.rmse ~predicted ~actual)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(array_of_size Gen.(int_range 2 40) (float_range (-10.0) 10.0))
    (fun a ->
      Stats.quantile a ~q:0.25 <= Stats.quantile a ~q:0.75)

let () =
  Alcotest.run "stats"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "standard error" `Quick test_standard_error;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile interpolates" `Quick
            test_quantile_interpolates;
          Alcotest.test_case "quantile validation" `Quick
            test_quantile_validation;
          Alcotest.test_case "ecdf survival" `Quick test_ecdf_survival;
          Alcotest.test_case "KM = ECDF without censoring" `Quick
            test_kaplan_meier_no_censoring_matches_ecdf;
          Alcotest.test_case "KM with censoring" `Quick
            test_kaplan_meier_with_censoring;
          Alcotest.test_case "survival rejects non-finite" `Quick
            test_survival_non_finite_rejected;
          Alcotest.test_case "rmse" `Quick test_rmse;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
        ] );
    ]
