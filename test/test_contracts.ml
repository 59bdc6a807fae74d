let c = 1.0
let lf = Families.uniform ~lifespan:100.0

(* The suspend contract, simulated: [Episode.run]'s draconian replay with
   the interrupted period's completed productive time banked instead of
   lost. The closed form [Contracts.expected_work_suspended] is checked
   against it. *)
let run_with_suspension s ~c ~reclaim_at =
  let o = Episode.run s ~c ~reclaim_at in
  {
    o with
    Episode.work_done = o.Episode.work_done +. o.Episode.work_lost;
    work_lost = 0.0;
  }

let test_suspension_banks_inflight () =
  let s = Schedule.of_list [ 5.0; 4.0 ] in
  (* Kill at 7: draconian banks 4 (first period) and loses 1 (one
     productive unit of the second period, after its 1-long setup). *)
  let d = Episode.run s ~c ~reclaim_at:7.0 in
  let g = run_with_suspension s ~c ~reclaim_at:7.0 in
  Alcotest.(check (float 1e-12)) "draconian" 4.0 d.Episode.work_done;
  Alcotest.(check (float 1e-12)) "suspended banks partial" 5.0
    g.Episode.work_done;
  Alcotest.(check (float 1e-12)) "nothing lost" 0.0 g.Episode.work_lost

let test_suspension_equals_draconian_when_uninterrupted () =
  let s = Schedule.of_list [ 5.0; 4.0 ] in
  let d = Episode.run s ~c ~reclaim_at:50.0 in
  let g = run_with_suspension s ~c ~reclaim_at:50.0 in
  Alcotest.(check (float 1e-12)) "same when safe" d.Episode.work_done
    g.Episode.work_done

let test_expected_suspended_hand_computed () =
  (* Uniform L = 10, one period of length 10, c = 1:
     E_suspend = ∫_1^10 (1 - t/10) dt = 9 - (100-1)/20 = 4.05. *)
  let lf = Families.uniform ~lifespan:10.0 in
  let s = Schedule.of_list [ 10.0 ] in
  Alcotest.(check (float 1e-8)) "hand value" 4.05
    (Contracts.expected_work_suspended ~c lf s)

let test_expected_suspended_matches_monte_carlo () =
  let g = Guideline.plan lf ~c in
  let s = g.Guideline.schedule in
  let analytic = Contracts.expected_work_suspended ~c lf s in
  let sampler = Reclaim.create lf in
  let rng = Prng.create ~seed:17L in
  let n = 40_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let reclaim_at = Reclaim.draw sampler rng in
    acc :=
      !acc +. (run_with_suspension s ~c ~reclaim_at).Episode.work_done
  done;
  let mc = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.3f ~ analytic %.3f" mc analytic)
    true
    (Float.abs (mc -. analytic) < 0.02 *. analytic)

let test_suspension_dominates_draconian () =
  (* Pointwise banking more implies E_suspend >= E_draconian. *)
  List.iter
    (fun (name, lf) ->
      let s = (Guideline.plan lf ~c).Guideline.schedule in
      Alcotest.(check bool) (name ^ ": suspend >= draconian") true
        (Contracts.expected_work_suspended ~c lf s
        >= Schedule.expected_work ~c lf s -. 1e-9))
    (Families.all_paper_scenarios ~c)

let test_single_period_optimal_under_suspension () =
  (* With nothing to lose, merging periods only saves setup cost: the
     single spanning period dominates any split. *)
  let single = Contracts.single_period_value ~c lf in
  List.iter
    (fun s ->
      Alcotest.(check bool) "single period dominates" true
        (single >= Contracts.expected_work_suspended ~c lf s -. 1e-9))
    [
      (Guideline.plan lf ~c).Guideline.schedule;
      Schedule.of_list [ 50.0; 50.0 ];
      Schedule.of_list [ 10.0; 20.0; 30.0; 40.0 ];
      Schedule.of_list [ 100.0 ];
    ]

let test_single_period_value_formula () =
  (* Uniform L: ∫_c^L (1 - t/L) = (L - c)^2 / (2L). *)
  let lf = Families.uniform ~lifespan:50.0 in
  Alcotest.(check (float 1e-8)) "closed form"
    (49.0 *. 49.0 /. 100.0)
    (Contracts.single_period_value ~c lf)

let test_price_of_draconia_positive () =
  (* The draconian optimum is strictly below the suspend optimum. *)
  List.iter
    (fun (name, lf) ->
      let draconian = (Guideline.plan lf ~c).Guideline.expected_work in
      let gentle = Contracts.single_period_value ~c lf in
      Alcotest.(check bool)
        (Printf.sprintf "%s: gentle %.3f > draconian %.3f" name gentle
           draconian)
        true (gentle > draconian))
    (Families.all_paper_scenarios ~c)

let test_validation () =
  (match Contracts.expected_work_suspended ~c:(-1.0) lf (Schedule.of_list [ 1.0 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted");
  match Contracts.single_period_value ~c:(-1.0) lf with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted"

let prop_analytic_suspend_between_draconian_and_capacity =
  QCheck.Test.make
    ~name:"E_draconian <= E_suspend <= work capacity" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 10) (float_range 0.5 15.0))
    (fun ts ->
      let s = Schedule.of_periods ts in
      let e_d = Schedule.expected_work ~c lf s in
      let e_s = Contracts.expected_work_suspended ~c lf s in
      e_d <= e_s +. 1e-9 && e_s <= Schedule.work_capacity ~c s +. 1e-9)

let () =
  Alcotest.run "contracts"
    [
      ( "contracts",
        [
          Alcotest.test_case "suspension banks in-flight" `Quick
            test_suspension_banks_inflight;
          Alcotest.test_case "equal when uninterrupted" `Quick
            test_suspension_equals_draconian_when_uninterrupted;
          Alcotest.test_case "hand-computed expectation" `Quick
            test_expected_suspended_hand_computed;
          Alcotest.test_case "matches Monte Carlo" `Quick
            test_expected_suspended_matches_monte_carlo;
          Alcotest.test_case "suspend dominates draconian" `Quick
            test_suspension_dominates_draconian;
          Alcotest.test_case "single period optimal" `Quick
            test_single_period_optimal_under_suspension;
          Alcotest.test_case "single period formula" `Quick
            test_single_period_value_formula;
          Alcotest.test_case "price of draconia > 0" `Quick
            test_price_of_draconia_positive;
          Alcotest.test_case "validation" `Quick test_validation;
          QCheck_alcotest.to_alcotest
            prop_analytic_suspend_between_draconian_and_capacity;
        ] );
    ]
