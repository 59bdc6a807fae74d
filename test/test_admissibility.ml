let admissible lf ~c =
  match Admissibility.test lf ~c with
  | Admissibility.Admissible _ -> true
  | Admissibility.Inadmissible _ -> false

let test_uniform_admissible () =
  Alcotest.(check bool) "uniform admits optimal schedule" true
    (admissible (Families.uniform ~lifespan:100.0) ~c:1.0)

let test_geometric_decreasing_admissible () =
  Alcotest.(check bool) "geometric-decreasing admissible" true
    (admissible (Families.geometric_decreasing ~a:2.0) ~c:0.5)

let test_geometric_increasing_admissible () =
  Alcotest.(check bool) "geometric-increasing admissible" true
    (admissible
       (Families.geometric_increasing ~lifespan:30.0)
       ~c:1.0)

let test_power_law_inadmissible () =
  (* The paper's Corollary 3.2 example: p = 1/(t+1)^d with d > 1 admits no
     optimal schedule. *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "power-law d=%g inadmissible" d)
        false
        (admissible (Families.power_law ~d) ~c:1.0))
    [ 1.5; 2.0; 3.0 ]

let test_power_law_d1_boundary () =
  (* d = 1: the literal Cor 3.2 margin is positive ((1+c)/(t+1)^2 > 0),
     yet no optimal schedule exists (expected work is unbounded over
     schedules); the divergent-integral test must catch it. *)
  let lf = Families.power_law ~d:1.0 in
  Alcotest.(check bool) "margin positive at t=2" true
    (Admissibility.margin lf ~c:1.0 2.0 > 0.0);
  (match Admissibility.test lf ~c:1.0 with
  | Admissibility.Inadmissible (Admissibility.Unbounded_work { tail_ratio }) ->
      Alcotest.(check bool) "tail ratio ~ 1" true (tail_ratio >= 0.98)
  | Admissibility.Inadmissible
      (Admissibility.Negative_margin _ | Admissibility.Heavy_tail _) ->
      Alcotest.fail "d = 1 should fail via unbounded work"
  | Admissibility.Admissible _ -> Alcotest.fail "d = 1 must be inadmissible")

let test_margin_formula () =
  (* Uniform L=10, c=1: margin(t) = 1 - t/10 - (t-1)/10 = 1.1 - 0.2 t. *)
  let lf = Families.uniform ~lifespan:10.0 in
  Alcotest.(check (float 1e-9)) "margin at t=2" 0.7
    (Admissibility.margin lf ~c:1.0 2.0);
  Alcotest.(check (float 1e-9)) "margin at t=5.5" 0.0
    (Admissibility.margin lf ~c:1.0 5.5)

let test_witness_is_valid () =
  match Admissibility.test (Families.uniform ~lifespan:10.0) ~c:1.0 with
  | Admissibility.Admissible { witness; margin } ->
      Alcotest.(check bool) "witness > c" true (witness > 1.0);
      Alcotest.(check (float 1e-6)) "margin consistent" margin
        (Admissibility.margin (Families.uniform ~lifespan:10.0) ~c:1.0 witness);
      Alcotest.(check bool) "margin positive" true (margin > 0.0)
  | Admissibility.Inadmissible _ -> Alcotest.fail "uniform must be admissible"

let test_inadmissible_reason_is_heavy_tail () =
  (* The power laws fail via polynomial tail weight, not a negative margin:
     their Cor 3.2 margin is positive on (c, (1+dc)/(d-1)). A t^{-2} tail
     has doubling-panel decay ratio 2^{1-2} = 0.5. *)
  match Admissibility.test (Families.power_law ~d:2.0) ~c:1.0 with
  | Admissibility.Inadmissible (Admissibility.Heavy_tail { tail_ratio }) ->
      Alcotest.(check (float 0.02)) "panel ratio 2^(1-d)" 0.5 tail_ratio
  | Admissibility.Inadmissible
      (Admissibility.Negative_margin _ | Admissibility.Unbounded_work _) ->
      Alcotest.fail "power-law d=2 should fail via heavy tail"
  | Admissibility.Admissible _ ->
      Alcotest.fail "power-law d=2 must be inadmissible"

let test_validation () =
  (match Admissibility.test (Families.uniform ~lifespan:10.0) ~c:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 rejected");
  match Admissibility.test (Families.uniform ~lifespan:10.0) ~c:20.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c >= horizon rejected"

let prop_paper_families_admissible =
  QCheck.Test.make
    ~name:"paper scenario families are admissible for reasonable c" ~count:50
    QCheck.(float_range 0.1 2.0)
    (fun c ->
      List.for_all
        (fun (_, lf) -> admissible lf ~c)
        (Families.all_paper_scenarios ~c))

let prop_power_law_heavy_tails_inadmissible =
  QCheck.Test.make ~name:"power laws with d > 1.2 are inadmissible" ~count:50
    QCheck.(pair (float_range 1.2 5.0) (float_range 0.2 3.0))
    (fun (d, c) ->
      not (admissible (Families.power_law ~d) ~c))

let () =
  Alcotest.run "admissibility"
    [
      ( "admissibility",
        [
          Alcotest.test_case "uniform admissible" `Quick
            test_uniform_admissible;
          Alcotest.test_case "geo-dec admissible" `Quick
            test_geometric_decreasing_admissible;
          Alcotest.test_case "geo-inc admissible" `Quick
            test_geometric_increasing_admissible;
          Alcotest.test_case "power law inadmissible" `Quick
            test_power_law_inadmissible;
          Alcotest.test_case "power law d=1 boundary" `Quick
            test_power_law_d1_boundary;
          Alcotest.test_case "margin formula" `Quick test_margin_formula;
          Alcotest.test_case "witness valid" `Quick test_witness_is_valid;
          Alcotest.test_case "inadmissible reason" `Quick
            test_inadmissible_reason_is_heavy_tail;
          Alcotest.test_case "validation" `Quick test_validation;
          QCheck_alcotest.to_alcotest prop_paper_families_admissible;
          QCheck_alcotest.to_alcotest prop_power_law_heavy_tails_inadmissible;
        ] );
    ]
