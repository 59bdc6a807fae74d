let feq ?(eps = 1e-12) a b = Alcotest.(check (float eps)) "value" a b

let lf_uniform = Families.uniform ~lifespan:10.0

let test_of_periods_valid () =
  let s = Schedule.of_periods [| 3.0; 2.0; 1.0 |] in
  Alcotest.(check int) "count" 3 (Schedule.num_periods s);
  feq 3.0 (Schedule.period s 0);
  feq 1.0 (Schedule.period s 2)

let test_of_periods_rejects_empty () =
  match Schedule.of_periods [||] with
  | exception Schedule.Invalid_schedule _ -> ()
  | _ -> Alcotest.fail "expected Invalid_schedule"

let test_of_periods_rejects_nonpositive () =
  (match Schedule.of_periods [| 1.0; 0.0 |] with
  | exception Schedule.Invalid_schedule _ -> ()
  | _ -> Alcotest.fail "zero period accepted");
  (match Schedule.of_periods [| -1.0 |] with
  | exception Schedule.Invalid_schedule _ -> ()
  | _ -> Alcotest.fail "negative period accepted");
  match Schedule.of_periods [| Float.nan |] with
  | exception Schedule.Invalid_schedule _ -> ()
  | _ -> Alcotest.fail "NaN period accepted"

let test_periods_returns_copy () =
  let s = Schedule.of_periods [| 1.0; 2.0 |] in
  let p = Schedule.periods s in
  p.(0) <- 99.0;
  feq 1.0 (Schedule.period s 0)

let test_completion_times () =
  let s = Schedule.of_periods [| 1.0; 2.0; 3.0 |] in
  let t = s.Schedule.ends in
  feq 1.0 t.(0);
  feq 3.0 t.(1);
  feq 6.0 t.(2);
  feq 6.0 (Schedule.total_duration s)

let test_positive_sub () =
  feq 2.0 (Schedule.positive_sub 3.0 1.0);
  feq 0.0 (Schedule.positive_sub 1.0 3.0);
  feq 0.0 (Schedule.positive_sub 1.0 1.0)

let test_work_capacity () =
  (* c = 1: (3-1) + (0.5 ⊖ 1) + (2-1) = 3 *)
  let s = Schedule.of_periods [| 3.0; 0.5; 2.0 |] in
  feq 3.0 (Schedule.work_capacity ~c:1.0 s)

let test_expected_work_by_hand () =
  (* Uniform L=10, c=1, S = [4; 3]:
     E = (4-1)(1 - 4/10) + (3-1)(1 - 7/10) = 3*0.6 + 2*0.3 = 2.4. *)
  let s = Schedule.of_list [ 4.0; 3.0 ] in
  feq 2.4 (Schedule.expected_work ~c:1.0 lf_uniform s)

let test_expected_work_positive_subtraction () =
  (* A period of length <= c contributes nothing but still consumes time. *)
  let s_short = Schedule.of_list [ 0.5; 4.0 ] in
  (* E = 0 + (4-1)*(1 - 4.5/10) = 3 * 0.55 = 1.65 *)
  feq 1.65 (Schedule.expected_work ~c:1.0 lf_uniform s_short)

let test_expected_work_beyond_horizon_is_zero () =
  let s = Schedule.of_list [ 20.0 ] in
  feq 0.0 (Schedule.expected_work ~c:1.0 lf_uniform s)

let test_expected_work_rejects_negative_c () =
  let s = Schedule.of_list [ 1.0 ] in
  match Schedule.expected_work ~c:(-1.0) lf_uniform s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_expected_work_detail_sums () =
  let s = Schedule.of_list [ 4.0; 3.0; 2.0 ] in
  let detail = Schedule.expected_work_detail ~c:1.0 lf_uniform s in
  let total = Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 detail in
  feq ~eps:1e-12 (Schedule.expected_work ~c:1.0 lf_uniform s) total

let test_productive_normal_form_merges () =
  (* [0.5; 0.4; 3.0] with c = 1: the two short periods merge forward into
     the third: [3.9]. *)
  let s = Schedule.of_list [ 0.5; 0.4; 3.0 ] in
  let s' = Schedule.productive_normal_form ~c:1.0 s in
  Alcotest.(check int) "merged to one" 1 (Schedule.num_periods s');
  feq 3.9 (Schedule.period s' 0)

let test_productive_normal_form_keeps_last () =
  (* Trailing short period stays (Prop 2.1 exempts the last period). *)
  let s = Schedule.of_list [ 3.0; 0.5 ] in
  let s' = Schedule.productive_normal_form ~c:1.0 s in
  Alcotest.(check int) "two periods" 2 (Schedule.num_periods s');
  feq 0.5 (Schedule.period s' 1)

let test_productive_normal_form_no_change () =
  let s = Schedule.of_list [ 3.0; 2.0 ] in
  Alcotest.(check bool) "already productive unchanged" true
    (Schedule.equal s (Schedule.productive_normal_form ~c:1.0 s))

let test_append () =
  let s = Schedule.append (Schedule.of_list [ 1.0 ]) 2.0 in
  Alcotest.(check int) "two periods" 2 (Schedule.num_periods s);
  match Schedule.append s (-1.0) with
  | exception Schedule.Invalid_schedule _ -> ()
  | _ -> Alcotest.fail "negative append accepted"

let test_equal () =
  let a = Schedule.of_list [ 1.0; 2.0 ] in
  let b = Schedule.of_list [ 1.0; 2.0 +. 1e-12 ] in
  let c = Schedule.of_list [ 1.0; 2.1 ] in
  Alcotest.(check bool) "equal within tol" true (Schedule.equal a b);
  Alcotest.(check bool) "different" false (Schedule.equal a c);
  Alcotest.(check bool) "different lengths" false
    (Schedule.equal a (Schedule.of_list [ 1.0 ]))

(* --- property tests -------------------------------------------------- *)

let gen_periods =
  QCheck.(array_of_size Gen.(int_range 1 20) (float_range 0.01 5.0))

let prop_normal_form_never_decreases_E =
  (* Proposition 2.1: the transformation can only improve expected work,
     for any life function. *)
  QCheck.Test.make ~name:"productive normal form never decreases E (Prop 2.1)"
    ~count:300 gen_periods (fun ts ->
      let s = Schedule.of_periods ts in
      let s' = Schedule.productive_normal_form ~c:1.0 s in
      let lfs =
        [
          lf_uniform;
          Families.geometric_decreasing ~a:1.3;
          Families.geometric_increasing ~lifespan:15.0;
          Families.polynomial ~d:3 ~lifespan:25.0;
        ]
      in
      List.for_all
        (fun lf ->
          Schedule.expected_work ~c:1.0 lf s'
          >= Schedule.expected_work ~c:1.0 lf s -. 1e-12)
        lfs)

(* Proposition 2.1's normal form: every period but the last exceeds c. *)
let productive ~c s =
  let n = Schedule.num_periods s in
  n > 0
  && List.for_all (fun i -> Schedule.period s i > c) (List.init (n - 1) Fun.id)

let prop_normal_form_is_productive =
  QCheck.Test.make ~name:"normal form satisfies Prop 2.1 structure" ~count:300
    gen_periods (fun ts ->
      let s' = Schedule.productive_normal_form ~c:1.0 (Schedule.of_periods ts) in
      productive ~c:1.0 s')

let prop_expected_work_le_capacity =
  QCheck.Test.make ~name:"E(S;p) <= work capacity" ~count:300 gen_periods
    (fun ts ->
      let s = Schedule.of_periods ts in
      Schedule.expected_work ~c:1.0 lf_uniform s
      <= Schedule.work_capacity ~c:1.0 s +. 1e-12)

let prop_expected_work_monotone_in_p =
  (* Pointwise larger survival can only increase expected work. *)
  QCheck.Test.make ~name:"E monotone in the life function" ~count:300
    gen_periods (fun ts ->
      let s = Schedule.of_periods ts in
      let lo = Families.uniform ~lifespan:10.0 in
      let hi = Families.uniform ~lifespan:20.0 in
      Schedule.expected_work ~c:1.0 hi s
      >= Schedule.expected_work ~c:1.0 lo s -. 1e-12)

let () =
  Alcotest.run "schedule"
    [
      ( "construction",
        [
          Alcotest.test_case "valid periods" `Quick test_of_periods_valid;
          Alcotest.test_case "rejects empty" `Quick test_of_periods_rejects_empty;
          Alcotest.test_case "rejects nonpositive" `Quick
            test_of_periods_rejects_nonpositive;
          Alcotest.test_case "defensive copies" `Quick test_periods_returns_copy;
          Alcotest.test_case "completion times" `Quick test_completion_times;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "expected-work",
        [
          Alcotest.test_case "positive subtraction" `Quick test_positive_sub;
          Alcotest.test_case "work capacity" `Quick test_work_capacity;
          Alcotest.test_case "hand-computed E" `Quick test_expected_work_by_hand;
          Alcotest.test_case "short period contributes 0" `Quick
            test_expected_work_positive_subtraction;
          Alcotest.test_case "beyond horizon is 0" `Quick
            test_expected_work_beyond_horizon_is_zero;
          Alcotest.test_case "negative c rejected" `Quick
            test_expected_work_rejects_negative_c;
          Alcotest.test_case "detail sums to E" `Quick
            test_expected_work_detail_sums;
        ] );
      ( "prop-2.1",
        [
          Alcotest.test_case "merges short periods" `Quick
            test_productive_normal_form_merges;
          Alcotest.test_case "keeps last short period" `Quick
            test_productive_normal_form_keeps_last;
          Alcotest.test_case "no change when productive" `Quick
            test_productive_normal_form_no_change;
          QCheck_alcotest.to_alcotest prop_normal_form_never_decreases_E;
          QCheck_alcotest.to_alcotest prop_normal_form_is_productive;
          QCheck_alcotest.to_alcotest prop_expected_work_le_capacity;
          QCheck_alcotest.to_alcotest prop_expected_work_monotone_in_p;
        ] );
    ]
