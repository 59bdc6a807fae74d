(* Cross-module invariants: monotonicity and consistency laws that tie the
   analytic, scheduling, and simulation layers together. *)

let test_expected_work_decreasing_in_c () =
  let lf = Families.uniform ~lifespan:100.0 in
  let s = Schedule.of_list [ 12.0; 10.0; 8.0 ] in
  let prev = ref infinity in
  List.iter
    (fun c ->
      let e = Schedule.expected_work ~c lf s in
      Alcotest.(check bool)
        (Printf.sprintf "E at c=%g below E at smaller c" c)
        true (e <= !prev +. 1e-12);
      prev := e)
    [ 0.0; 0.5; 1.0; 2.0; 4.0; 8.0 ]

let test_guideline_value_decreasing_in_c () =
  let lf = Families.uniform ~lifespan:100.0 in
  let prev = ref infinity in
  List.iter
    (fun c ->
      let e = (Guideline.plan lf ~c).Guideline.expected_work in
      Alcotest.(check bool)
        (Printf.sprintf "plan value at c=%g monotone" c)
        true (e <= !prev +. 1e-9);
      prev := e)
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let test_guideline_value_increasing_in_lifespan () =
  let prev = ref 0.0 in
  List.iter
    (fun l ->
      let lf = Families.uniform ~lifespan:l in
      let e = (Guideline.plan lf ~c:1.0).Guideline.expected_work in
      Alcotest.(check bool)
        (Printf.sprintf "plan value at L=%g monotone" l)
        true (e >= !prev -. 1e-9);
      prev := e)
    [ 10.0; 25.0; 50.0; 100.0; 200.0 ]

let test_dynamic_consistency_of_recurrence () =
  (* The E13 finding as a law: after surviving the first period, the
     online (conditional) planner's next period equals the original plan's
     second period — the recurrence is "progressive" exactly as §6 says. *)
  List.iter
    (fun (name, lf) ->
      let c = 1.0 in
      let plan = Guideline.plan lf ~c in
      if Schedule.num_periods plan.Guideline.schedule >= 2 then begin
        let t0 = plan.Guideline.t0 in
        let t1 = Schedule.period plan.Guideline.schedule 1 in
        match Guideline.next_period_online lf ~c ~elapsed:t0 with
        | Some online_t1 ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: online %.4f ~ planned %.4f" name online_t1 t1)
              true
              (Float.abs (online_t1 -. t1) <= 1e-6 *. Float.max 1.0 t1)
        | None -> Alcotest.failf "%s: online planner gave up early" name
      end)
    (("weibull(1.5, 80)", Families.weibull ~shape:1.5 ~scale:80.0)
    :: Families.all_paper_scenarios ~c:1.0)

let test_adaptive_farm_policy_equals_static () =
  (* Farm-level consequence of dynamic consistency: adaptive re-planning
     reproduces the static guideline run (same seeds) up to rounding. On
     an unclipped episode it plays eq. 3.6's continuation, the static
     schedule itself. *)
  let ws =
    { Farm.ws_life = Families.uniform ~lifespan:100.0; ws_presence_mean = 50.0 }
  in
  let cfg policy =
    {
      Farm.c = 1.0;
      total_work = 300.0;
      workstations = [ ws; ws ];
      policy;
      max_time = 1e6;
    }
  in
  List.iter
    (fun seed ->
      let a = Farm.run (cfg Farm.guideline_policy) ~seed in
      let b = Farm.run (cfg Farm.adaptive_policy) ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld makespans within 1e-9" seed)
        true
        (Float.abs (a.Farm.makespan -. b.Farm.makespan)
        <= 1e-9 *. a.Farm.makespan))
    [ 1L; 2L; 3L ]

let test_optimizer_dominates_every_other_planner () =
  (* The brute-force optimum is an upper envelope for every planner in the
     repo (to solver tolerance). *)
  let c = 1.0 in
  List.iter
    (fun (name, lf) ->
      let o = (Optimizer.optimal_schedule lf ~c).Optimizer.expected_work in
      let candidates =
        (Guideline.plan lf ~c).Guideline.expected_work
        :: (Greedy.plan lf ~c).Greedy.expected_work
        :: List.map
             (fun b -> b.Baselines.expected_work)
             (Baselines.all lf ~c)
      in
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: optimizer envelope" name)
            true
            (e <= o +. (0.001 *. Float.max 1.0 o)))
        candidates)
    (Families.all_paper_scenarios ~c)

let test_mean_lifetime_consistency () =
  (* ∫p computed three ways: quadrature (mean_lifetime), sampling, and the
     suspend-contract value at c = 0 over the whole horizon. *)
  let lf = Families.geometric_increasing ~lifespan:30.0 in
  let quad = Life_function.mean_lifetime lf in
  let via_contract =
    Contracts.single_period_value ~c:0.0 lf
  in
  Alcotest.(check (float 1e-6)) "quadrature = contract at c=0" quad via_contract;
  let sampler = Reclaim.create lf in
  let g = Prng.create ~seed:5L in
  let sampled =
    Stats.mean (Array.init 200_000 (fun _ -> Reclaim.draw sampler g))
  in
  Alcotest.(check bool) "sampled mean close" true
    (Float.abs (sampled -. quad) < 0.02 *. quad)

let test_checkpoint_farm_throughput_triangle () =
  (* The same (p, c) through three independent formalisms must agree on
     the per-episode expectation. *)
  let lf = Families.exponential ~rate:0.02 in
  let c = 1.0 in
  let plan = Checkpoint.plan_saves lf ~c in
  let g = Guideline.plan lf ~c in
  let thr = Throughput.of_guideline lf ~c ~presence_mean:10.0 in
  Alcotest.(check (float 1e-9)) "checkpoint = guideline"
    g.Guideline.expected_work plan.Checkpoint.expected_committed;
  Alcotest.(check (float 1e-9)) "throughput numerator = guideline"
    g.Guideline.expected_work thr.Throughput.work_per_cycle

let prop_expected_work_superadditive_under_concat =
  (* Appending a schedule after another yields at least the first part's
     E (extra periods can only add nonnegative expected contributions). *)
  QCheck.Test.make
    ~name:"appending periods never decreases expected work" ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 6) (float_range 0.5 10.0))
        (array_of_size Gen.(int_range 1 6) (float_range 0.5 10.0)))
    (fun (a, b) ->
      let lf = Families.uniform ~lifespan:100.0 in
      let s1 = Schedule.of_periods a in
      let s2 = Schedule.of_periods (Array.append a b) in
      Schedule.expected_work ~c:1.0 lf s2
      >= Schedule.expected_work ~c:1.0 lf s1 -. 1e-12)

let prop_scaling_covariance =
  (* Scaling time by k scales the optimal value structure: E for
     (scale_time k p, k*c) on the k-scaled schedule equals k * E for
     (p, c) on the original. *)
  QCheck.Test.make ~name:"time-scaling covariance of expected work" ~count:100
    QCheck.(
      pair (float_range 0.5 8.0)
        (array_of_size Gen.(int_range 1 8) (float_range 0.5 10.0)))
    (fun (k, ts) ->
      let lf = Families.uniform ~lifespan:100.0 in
      let scaled = Families.scale_time ~factor:k lf in
      let s = Schedule.of_periods ts in
      let s_scaled = Schedule.of_periods (Array.map (fun t -> k *. t) ts) in
      let e = Schedule.expected_work ~c:1.0 lf s in
      let e_scaled = Schedule.expected_work ~c:k scaled s_scaled in
      Float.abs (e_scaled -. (k *. e)) <= 1e-6 *. Float.max 1.0 (k *. e))

let () =
  Alcotest.run "invariants"
    [
      ( "invariants",
        [
          Alcotest.test_case "E decreasing in c" `Quick
            test_expected_work_decreasing_in_c;
          Alcotest.test_case "plan value decreasing in c" `Quick
            test_guideline_value_decreasing_in_c;
          Alcotest.test_case "plan value increasing in L" `Quick
            test_guideline_value_increasing_in_lifespan;
          Alcotest.test_case "dynamic consistency (Sec 6)" `Quick
            test_dynamic_consistency_of_recurrence;
          Alcotest.test_case "adaptive farm = static farm" `Quick
            test_adaptive_farm_policy_equals_static;
          Alcotest.test_case "optimizer is the envelope" `Quick
            test_optimizer_dominates_every_other_planner;
          Alcotest.test_case "mean lifetime three ways" `Quick
            test_mean_lifetime_consistency;
          Alcotest.test_case "checkpoint/guideline/throughput triangle" `Quick
            test_checkpoint_farm_throughput_triangle;
          QCheck_alcotest.to_alcotest
            prop_expected_work_superadditive_under_concat;
          QCheck_alcotest.to_alcotest prop_scaling_covariance;
        ] );
    ]
