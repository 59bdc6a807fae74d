(* End-to-end pipelines crossing every library boundary: the flows a
   downstream user of this reproduction would actually run. *)

let test_trace_to_farm_pipeline () =
  (* Synthesize owner traces -> estimate survival -> fit a family ->
     guideline-schedule -> validate by simulation. *)
  let rng = Prng.create ~seed:2026L in
  let model = Owner_model.Uniform_absence { max = 60.0 } in
  let durations =
    Array.init 3000 (fun _ -> Owner_model.sample model rng)
  in
  (* Route A: nonparametric estimate. *)
  let est = Survival.of_durations durations in
  let plan_np = Guideline.plan est.Survival.life ~c:1.0 in
  (* Route B: parametric fit. *)
  let fit = Fit.best_fit durations in
  let plan_p = Guideline.plan fit.Fit.life ~c:1.0 in
  (* Both schedules, evaluated under the TRUE life function, should come
     close to the schedule planned with the truth itself. *)
  let truth = Option.get (Owner_model.true_life_function model) in
  let e_true = (Guideline.plan truth ~c:1.0).Guideline.expected_work in
  let eval s = Schedule.expected_work ~c:1.0 truth s in
  let e_np = eval plan_np.Guideline.schedule in
  let e_p = eval plan_p.Guideline.schedule in
  Alcotest.(check bool)
    (Printf.sprintf "nonparametric within 5%% (%.3f vs %.3f)" e_np e_true)
    true
    (e_np >= 0.95 *. e_true);
  Alcotest.(check bool)
    (Printf.sprintf "parametric within 5%% (%.3f vs %.3f)" e_p e_true)
    true
    (e_p >= 0.95 *. e_true)

let test_checkpoint_vs_cyclestealing_duality () =
  (* The same (p, c) pair through both front ends gives identical
     schedules — the paper's formal correspondence. *)
  let lf = Families.geometric_increasing ~lifespan:40.0 in
  let g = Guideline.plan lf ~c:0.5 in
  let p = Checkpoint.plan_saves lf ~c:0.5 in
  Alcotest.(check bool) "identical interval structure" true
    (Schedule.equal ~tol:1e-9 g.Guideline.schedule p.Checkpoint.intervals)

let test_full_report_on_trace_derived_schedule () =
  (* Theory checks degrade gracefully on trace-derived (Unknown-shape)
     life functions. *)
  let rng = Prng.create ~seed:5L in
  let ds =
    Array.init 800 (fun _ ->
        Owner_model.sample (Owner_model.Coffee_break { typical = 12.0; spread = 3.0 }) rng)
  in
  let est = Survival.of_durations ds in
  let g = Guideline.plan est.Survival.life ~c:0.5 in
  let report = Theory.full_report est.Survival.life ~c:0.5 g.Guideline.schedule in
  Alcotest.(check int) "all five checks ran" 5 (List.length report);
  (* The recurrence check must hold: the schedule was built from it. *)
  let rec_check =
    List.find (fun c -> c.Theory.name = "cor-3.1-recurrence") report
  in
  Alcotest.(check bool) ("recurrence: " ^ rec_check.Theory.detail) true
    rec_check.Theory.holds

let test_discretized_guideline_in_monte_carlo () =
  (* Quantized schedules should lose only the predicted amount of expected
     work when replayed in simulation. *)
  let lf = Families.uniform ~lifespan:100.0 in
  let c = 1.0 in
  let g = Guideline.plan lf ~c in
  let q = Discretize.quantize lf ~c ~task:2.0 g.Guideline.schedule in
  let est =
    Monte_carlo.estimate ~trials:20_000 lf ~c ~schedule:q.Discretize.schedule
      ~seed:31L
  in
  Alcotest.(check bool) "MC within 3% of quantized analytic" true
    (Float.abs (est.Monte_carlo.mean_work -. q.Discretize.expected_work)
    < 0.03 *. q.Discretize.expected_work)

let test_admissibility_gates_scheduling () =
  (* For an inadmissible life function, the guideline still produces a
     schedule (finite horizon truncation) but the user can detect the
     situation with the admissibility API. *)
  let lf = Families.power_law ~d:2.0 in
  Alcotest.(check bool) "detected inadmissible" true
    (match Admissibility.test lf ~c:1.0 with
    | Admissibility.Inadmissible _ -> true
    | Admissibility.Admissible _ -> false);
  (* The machinery still degrades gracefully rather than diverging. *)
  let g = Guideline.plan lf ~c:1.0 in
  Alcotest.(check bool) "finite schedule" true
    (Schedule.num_periods g.Guideline.schedule < 100_000)

let () =
  Alcotest.run "integration"
    [
      ( "integration",
        [
          Alcotest.test_case "trace -> fit -> schedule -> evaluate" `Slow
            test_trace_to_farm_pipeline;
          Alcotest.test_case "checkpoint/cycle-stealing duality" `Quick
            test_checkpoint_vs_cyclestealing_duality;
          Alcotest.test_case "theory report on trace-derived p" `Quick
            test_full_report_on_trace_derived_schedule;
          Alcotest.test_case "discretized schedule in MC" `Quick
            test_discretized_guideline_in_monte_carlo;
          Alcotest.test_case "admissibility gates scheduling" `Quick
            test_admissibility_gates_scheduling;
        ] );
    ]
