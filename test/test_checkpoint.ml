let lf = Families.exponential ~rate:0.02 (* mean time to failure 50 *)
let c = 1.0

let test_plan_saves_basic () =
  let p = Checkpoint.plan_saves lf ~c in
  Alcotest.(check bool) "positive committed" true
    (p.Checkpoint.expected_committed > 0.0);
  Alcotest.(check bool) "multiple intervals" true
    (Schedule.num_periods p.Checkpoint.intervals > 1)

let test_plan_is_guideline_plan () =
  (* The checkpoint plan is exactly the cycle-stealing guideline plan: the
     formal correspondence of the paper's §1 Remark. *)
  let p = Checkpoint.plan_saves lf ~c in
  let g = Guideline.plan lf ~c in
  Alcotest.(check (float 1e-9)) "same expected value"
    g.Guideline.expected_work p.Checkpoint.expected_committed

let test_plan_truncated_to_work () =
  let work = 10.0 in
  let p = Checkpoint.plan_saves ~work lf ~c in
  (* Productive time of the plan covers exactly the work. *)
  Alcotest.(check (float 1e-6)) "covers work" work
    (Schedule.work_capacity ~c p.Checkpoint.intervals)

let test_plan_validation () =
  (match Checkpoint.plan_saves lf ~c:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 accepted");
  match Checkpoint.plan_saves ~work:(-5.0) lf ~c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative work accepted"

let test_expected_committed_per_attempt () =
  let e =
    (Checkpoint.plan_saves ~work:10.0 lf ~c).Checkpoint.expected_committed
  in
  Alcotest.(check bool) "bounded by work" true (e > 0.0 && e <= 10.0)

let test_simulate_restarts_completes () =
  let g = Prng.create ~seed:42L in
  let r =
    Checkpoint.simulate_restarts ~work:50.0 ~c ~restart_cost:5.0 lf g
      ~max_failures:10_000
  in
  Alcotest.(check bool) "makespan >= work" true (r.Checkpoint.makespan >= 50.0);
  Alcotest.(check bool) "some checkpoints" true
    (r.Checkpoint.checkpoints_written > 0)

let test_simulate_deterministic () =
  let run seed =
    let g = Prng.create ~seed in
    Checkpoint.simulate_restarts ~work:30.0 ~c ~restart_cost:2.0 lf g
      ~max_failures:10_000
  in
  let r1 = run 7L and r2 = run 7L in
  Alcotest.(check (float 0.0)) "same makespan" r1.Checkpoint.makespan
    r2.Checkpoint.makespan;
  Alcotest.(check int) "same failures" r1.Checkpoint.failures
    r2.Checkpoint.failures

let test_simulate_failure_free_when_reliable () =
  (* Near-immortal machine: one pass, no failures. *)
  let reliable = Families.exponential ~rate:1e-7 in
  let g = Prng.create ~seed:1L in
  let r =
    Checkpoint.simulate_restarts ~work:20.0 ~c ~restart_cost:1.0 reliable g
      ~max_failures:10
  in
  Alcotest.(check int) "no failures" 0 r.Checkpoint.failures;
  Alcotest.(check (float 1e-6)) "no work lost" 0.0 r.Checkpoint.work_lost_total

let test_simulate_validation () =
  let g = Prng.create ~seed:1L in
  match
    Checkpoint.simulate_restarts ~work:0.0 ~c ~restart_cost:1.0 lf g
      ~max_failures:1
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero work accepted"

let test_more_failures_longer_makespan () =
  (* Averaged over seeds, a flakier machine takes longer. *)
  let mean_makespan rate =
    let lf = Families.exponential ~rate in
    let seeds = [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L; 9L; 10L ] in
    let total =
      List.fold_left
        (fun acc seed ->
          let g = Prng.create ~seed in
          let r =
            Checkpoint.simulate_restarts ~work:40.0 ~c ~restart_cost:3.0 lf g
              ~max_failures:100_000
          in
          acc +. r.Checkpoint.makespan)
        0.0 seeds
    in
    total /. 10.0
  in
  Alcotest.(check bool) "flaky slower" true
    (mean_makespan 0.05 > mean_makespan 0.005)

let prop_checkpoint_cost_tradeoff =
  (* Higher save cost c must not increase the expected committed work per
     attempt. *)
  QCheck.Test.make ~name:"expected committed decreases with save cost"
    ~count:20
    QCheck.(float_range 0.2 2.0)
    (fun c1 ->
      let c2 = c1 *. 2.0 in
      let committed c =
        (Checkpoint.plan_saves ~work:100.0 lf ~c).Checkpoint.expected_committed
      in
      committed c1 >= committed c2 -. 1e-9)

let prop_simulation_conserves_work =
  QCheck.Test.make ~name:"simulation completes exactly the requested work"
    ~count:20
    QCheck.(pair (float_range 5.0 60.0) (int_range 1 1000))
    (fun (work, seed) ->
      let g = Prng.create ~seed:(Int64.of_int seed) in
      let r =
        Checkpoint.simulate_restarts ~work ~c ~restart_cost:1.0 lf g
          ~max_failures:1_000_000
      in
      (* makespan >= work + checkpoint overhead of at least one interval *)
      r.Checkpoint.makespan >= work)

let () =
  Alcotest.run "checkpoint"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "plan basics" `Quick test_plan_saves_basic;
          Alcotest.test_case "plan = guideline (§1 Remark)" `Quick
            test_plan_is_guideline_plan;
          Alcotest.test_case "truncated to work" `Quick
            test_plan_truncated_to_work;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "expected per attempt" `Quick
            test_expected_committed_per_attempt;
          Alcotest.test_case "simulation completes" `Quick
            test_simulate_restarts_completes;
          Alcotest.test_case "simulation deterministic" `Quick
            test_simulate_deterministic;
          Alcotest.test_case "reliable machine" `Quick
            test_simulate_failure_free_when_reliable;
          Alcotest.test_case "simulation validation" `Quick
            test_simulate_validation;
          Alcotest.test_case "flaky machine slower" `Quick
            test_more_failures_longer_makespan;
          QCheck_alcotest.to_alcotest prop_checkpoint_cost_tradeoff;
          QCheck_alcotest.to_alcotest prop_simulation_conserves_work;
        ] );
    ]
