(* Trace-driven scheduling: the paper assumes the life function may be
   "garnered possibly from trace data that exposes B's owner's computer
   usage patterns" (§1). This example runs that pipeline:

   1. synthesize a month of owner absences from a bimodal day/night model
      (no closed-form life function exists for it);
   2. estimate the survival curve (Kaplan-Meier under censoring) and smooth
      it into a schedulable life function;
   3. also fit the best parametric family;
   4. schedule with both, and compare against an oracle that samples the
      true model directly.

   Run with: dune exec examples/trace_driven.exe *)

let () =
  let c = 2.0 (* minutes of setup per bundle *) in
  let model =
    Owner_model.Day_night
      { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 }
  in
  let rng = Prng.create ~seed:20260705L in

  (* A month of monitoring: ~40 absences/day, censored at the 16-hour
     collection window. *)
  let observations = Owner_model.collect ~censor_at:960.0 model rng ~n:1200 in
  let estimate = Survival.of_observations observations in
  Format.printf "Collected %d absences (%d censored at 16 h).@."
    (Array.length observations)
    estimate.Survival.n_censored;
  Format.printf "Nonparametric estimate: %a@." Life_function.pp
    estimate.Survival.life;
  Format.printf "  estimated mean absence: %.1f min@."
    (Life_function.mean_lifetime estimate.Survival.life);
  Format.printf "  numeric shape classification: %s@."
    (match Life_function.classify_shape estimate.Survival.life with
    | Life_function.Concave -> "concave"
    | Life_function.Convex -> "convex"
    | Life_function.Linear -> "linear"
    | Life_function.Log_concave -> "log-concave"
    | Life_function.Unknown -> "mixed/unknown");

  (* Parametric alternative. *)
  let durations =
    observations
    |> Array.to_seq
    |> Seq.filter (fun o -> o.Owner_model.observed)
    |> Seq.map (fun o -> o.Owner_model.duration)
    |> Array.of_seq
  in
  let fitted = Fit.best_fit durations in
  Format.printf "Best parametric fit   : %s (SSE %.3f)@." fitted.Fit.family
    fitted.Fit.sse;

  (* Schedule with each. *)
  let plan_np = Guideline.plan estimate.Survival.life ~c in
  let plan_p = Guideline.plan fitted.Fit.life ~c in
  Format.printf "@.Nonparametric plan: %a@." Schedule.pp
    plan_np.Guideline.schedule;
  Format.printf "Parametric plan   : %a@." Schedule.pp plan_p.Guideline.schedule;

  (* Oracle evaluation: replay both schedules against fresh absences drawn
     from the true model. Each schedule is tabulated once, and every
     episode reads its banked work from that table. *)
  let eval name schedule =
    let trials = 50_000 in
    let g = Prng.create ~seed:99L in
    let replay = Episode.replay schedule ~c in
    let acc = ref 0.0 in
    for _ = 1 to trials do
      let reclaim_at = Owner_model.sample model g in
      acc := !acc +. (Episode.play replay ~reclaim_at).Episode.work_done
    done;
    let mean = !acc /. float_of_int trials in
    Format.printf "  %-18s banks %.2f min/episode under the true model@." name
      mean;
    mean
  in
  Format.printf "@.Oracle replay (50k fresh episodes from the true model):@.";
  let e_np = eval "nonparametric" plan_np.Guideline.schedule in
  let e_p = eval "parametric" plan_p.Guideline.schedule in
  Format.printf
    "@.The day/night mixture is poorly served by any single family — the \
     nonparametric estimate %s the parametric fit here (%+.1f%%).@."
    (if e_np >= e_p then "beats" else "trails")
    (100.0 *. ((e_np /. e_p) -. 1.0))
