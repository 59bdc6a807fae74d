(* csctl — command-line front end of the cycle-stealing library.

   Subcommands:
     csctl schedule  --family uniform --lifespan 100 -c 1
     csctl bounds    --family geo-dec --a 1.05 -c 1
     csctl simulate  --family geo-inc --lifespan 30 -c 1 --trials 50000
     csctl compare   --family uniform -c 1 --trials 2000 --jobs 4
     csctl table     --family uniform --c-min 0.5 --c-max 4 --steps 8
     csctl admissible --family power-law --d 2 -c 1
     csctl fit       --model exponential --mean 40 --samples 1000 -c 1
     csctl checkpoint --work 720 --mtbf 240 -c 1.5
     csctl profile   --family uniform -c 1 --out trace.json

   [schedule], [simulate] and [compare] accept --trace FILE (write a
   JSONL event trace of the run, opened by an Obs_meta provenance
   header). The trace is the one record of a run: every view of it —
   summary, diff, health verdict — is cstrace's, read from that
   file. Every command plans with Guideline.plan;
   [table] hands its whole grid to Guideline.plan_batch. The
   Monte-Carlo and batch-planning commands ([simulate], [compare],
   [table]) accept --jobs N to run on N domains; output is bit-identical
   for any N (DESIGN.md §10). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Life-function selection flags                                      *)

type family_spec = {
  family : string;
  lifespan : float;
  a : float;
  rate : float option;
  d : int;
  w_shape : float;
  w_scale : float;
}

let family_term =
  let family =
    Arg.(
      value
      & opt string "uniform"
      & info [ "family" ] ~docv:"NAME"
          ~doc:
            "Life-function family: uniform | polynomial | geo-dec | geo-inc \
             | exponential | weibull | power-law.")
  in
  let lifespan =
    Arg.(
      value & opt float 100.0
      & info [ "lifespan"; "L" ] ~docv:"L"
          ~doc:"Potential lifespan for bounded families.")
  in
  let a =
    Arg.(
      value & opt float (exp 0.05)
      & info [ "a" ] ~docv:"A" ~doc:"Base of the geometric-decreasing family.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"R" ~doc:"Rate of the exponential family.")
  in
  let d =
    Arg.(
      value & opt int 2
      & info [ "d" ] ~docv:"D"
          ~doc:"Degree for the polynomial / power-law families.")
  in
  let w_shape =
    Arg.(
      value & opt float 2.0
      & info [ "shape" ] ~docv:"K" ~doc:"Weibull shape parameter.")
  in
  let w_scale =
    Arg.(
      value & opt float 50.0
      & info [ "scale" ] ~docv:"S" ~doc:"Weibull scale parameter.")
  in
  Term.(
    const (fun family lifespan a rate d w_shape w_scale ->
        { family; lifespan; a; rate; d; w_shape; w_scale })
    $ family $ lifespan $ a $ rate $ d $ w_shape $ w_scale)

let resolve_family spec =
  match spec.family with
  | "uniform" -> Ok (Families.uniform ~lifespan:spec.lifespan)
  | "polynomial" | "poly" ->
      Ok (Families.polynomial ~d:spec.d ~lifespan:spec.lifespan)
  | "geo-dec" | "geometric-decreasing" ->
      Ok (Families.geometric_decreasing ~a:spec.a)
  | "geo-inc" | "geometric-increasing" ->
      Ok (Families.geometric_increasing ~lifespan:spec.lifespan)
  | "exponential" | "exp" ->
      let rate = Option.value spec.rate ~default:(1.0 /. spec.lifespan) in
      Ok (Families.exponential ~rate)
  | "weibull" -> Ok (Families.weibull ~shape:spec.w_shape ~scale:spec.w_scale)
  | "power-law" -> Ok (Families.power_law ~d:(float_of_int spec.d))
  | other ->
      Error
        (Printf.sprintf
           "unknown family %S (valid: uniform | polynomial | geo-dec | \
            geo-inc | exponential | weibull | power-law)"
           other)

let c_term =
  Arg.(
    value & opt float 1.0
    & info [ "c"; "overhead" ] ~docv:"C"
        ~doc:"Communication overhead per period (the paper's c).")

(* Out-of-range input is rejected by the library with Invalid_argument
   (or Failure), or with Invalid_life_function when a life function
   fails validation: report it as [error: ...] and exit 1. *)
let or_exit k =
  try k () with
  | Invalid_argument msg | Failure msg
  | Life_function.Invalid_life_function msg
  | Schedule.Invalid_schedule msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

(* A simulated figure that is not finite (on a lifespan near the top of
   the float range, episode sums overflow; so does the clock of a few
   restarts of ~1e308) is refused through [or_exit] before anything is
   printed, never printed as nan. *)
let finite what x =
  if not (Float.is_finite x) then
    failwith (Printf.sprintf "%s is %g, not a finite number" what x)

(* [or_exit] covers the family constructor too: out-of-range parameters
   (-L 0, -a 1, --shape nan) are rejected there. *)
let with_family spec k =
  or_exit (fun () ->
      match resolve_family spec with
      | Error msg ->
          prerr_endline msg;
          exit 2
      | Ok lf -> k lf)

(* ------------------------------------------------------------------ *)
(* Parallelism flag (shared by simulate, compare and table)            *)

(* More domains than the host recommends only contend for its cores,
   and answers are bit-identical for any count: the count is clamped to
   the host's here, so the pool and the trace's meta line see the count
   actually used. *)
let jobs_term =
  Term.(
    const (fun n -> Int.min n (Domain.recommended_domain_count ()))
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Worker domains to run the Monte-Carlo / planning work on \
               (default 1 = serial), at most the host's recommended \
               domain count. Output is bit-identical for any $(docv); \
               only wall time changes."))

(* [k] receives [None] for the untouched serial path, or a transient
   pool that is shut down when [k] returns. *)
let with_jobs jobs k =
  if jobs = 1 then k None
  else Domain_pool.with_pool ~domains:jobs (fun p -> k (Some p))

(* ------------------------------------------------------------------ *)
(* Trace flag (shared by schedule, simulate and compare)              *)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL event trace of the run to $(docv) (one JSON \
           object per line; aggregate it back with $(b,cstrace report)).")

(* Build an [Obs.t] from the flag and run [k obs] with it. [meta] is a
   thunk so the git-sha capture only happens when a trace file is
   actually being written. *)
let with_obs ~meta ~trace k =
  match trace with
  | None -> k Obs.disabled
  | Some path -> (
      try
        Obs.Sink.with_jsonl_file ~meta:(meta ()) path (fun sink ->
            k (Obs.create ~sink ()))
      with Sys_error msg ->
        prerr_endline ("error: " ^ msg);
        exit 1)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

let schedule_cmd =
  let run spec c trace =
    let meta () =
      Obs.Meta.make
        ~scenario:(Printf.sprintf "schedule family=%s c=%g" spec.family c)
        ()
    in
    with_family spec (fun lf ->
        with_obs ~meta ~trace (fun obs ->
            let plan = Guideline.plan ~obs lf ~c in
            let lo, hi = plan.Guideline.bracket in
            Format.printf "life function : %a@." Life_function.pp lf;
            Format.printf "t0 bracket    : [%.4f, %.4f]@." lo hi;
            Format.printf "schedule      : %a@." Schedule.pp
              plan.Guideline.schedule;
            Format.printf "periods       : ";
            Array.iter
              (Format.printf "%.4f ")
              (Schedule.periods plan.Guideline.schedule);
            Format.printf "@.expected work : %.6f@."
              plan.Guideline.expected_work;
            List.iter
              (fun chk -> Format.printf "%a@." Theory.pp_check chk)
              (Theory.full_report lf ~c plan.Guideline.schedule)))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Compute the guideline schedule for a scenario.")
    Term.(const run $ family_term $ c_term $ trace_term)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)

let bounds_cmd =
  let run spec c =
    with_family spec (fun lf ->
        let lo, hi = Bounds.bracket lf ~c in
        Format.printf "life function        : %a@." Life_function.pp lf;
        Format.printf "Thm 3.2 lower bound  : %.6f@." (Bounds.lower_t0 lf ~c);
        Format.printf "Thm 3.3 upper (convex) : %.6f@."
          (Bounds.upper_t0_convex lf ~c);
        Format.printf "Thm 3.3 upper (concave): %.6f@."
          (Bounds.upper_t0_concave lf ~c);
        Format.printf "search bracket       : [%.6f, %.6f]@." lo hi;
        match Life_function.support lf with
        | Life_function.Bounded l
          when Life_function.shape lf = Life_function.Concave
               || Life_function.shape lf = Life_function.Linear ->
            Format.printf "Cor 5.5 lower        : %.6f@."
              (Bounds.lower_t0_concave_lifespan ~c ~lifespan:l);
            Format.printf "Cor 5.3 max periods  : %d@."
              (Bounds.max_periods_concave ~c ~lifespan:l)
        | Life_function.Bounded _ | Life_function.Unbounded -> ())
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the Theorem 3.2/3.3 bounds on t0.")
    Term.(const run $ family_term $ c_term)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let trials =
    Arg.(
      value & opt int 20_000
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo episodes.")
  in
  let seed =
    Arg.(
      value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let run spec c trials seed jobs trace =
    let meta () =
      Obs.Meta.make ~seed:(Int64.of_int seed) ~jobs
        ~scenario:
          (Printf.sprintf "simulate family=%s c=%g trials=%d" spec.family c
             trials)
        ()
    in
    with_family spec (fun lf ->
        with_obs ~meta ~trace (fun obs ->
            with_jobs jobs (fun pool ->
            let plan = Guideline.plan ~obs lf ~c in
            let est =
              Monte_carlo.estimate ~obs ?pool ~trials lf ~c
                ~schedule:plan.Guideline.schedule ~seed:(Int64.of_int seed)
            in
            let lo, hi = est.Monte_carlo.ci95 in
            finite "MC mean" est.Monte_carlo.mean_work;
            finite "95% CI lower end" lo;
            finite "95% CI upper end" hi;
            finite "mean work lost" est.Monte_carlo.mean_lost;
            Format.printf "schedule      : %a@." Schedule.pp
              plan.Guideline.schedule;
            Format.printf "analytic E    : %.6f@." est.Monte_carlo.analytic;
            Format.printf "MC mean (n=%d): %.6f  95%% CI [%.6f, %.6f]@."
              est.Monte_carlo.trials est.Monte_carlo.mean_work lo hi;
            Format.printf "interrupted   : %.2f%%@."
              (100.0 *. est.Monte_carlo.interrupted_fraction);
            Format.printf "mean overhead : %.6f ; mean work lost: %.6f@."
              est.Monte_carlo.mean_overhead est.Monte_carlo.mean_lost)))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Monte-Carlo-validate the guideline schedule for a scenario.")
    Term.(
      const run $ family_term $ c_term $ trials $ seed $ jobs_term
      $ trace_term)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_cmd =
  let trials =
    Arg.(
      value & opt int 2_000
      & info [ "trials" ] ~docv:"N"
          ~doc:"Monte-Carlo episodes per policy (common random numbers).")
  in
  let seed =
    Arg.(
      value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let run spec c trials seed jobs trace =
    let meta () =
      Obs.Meta.make ~seed:(Int64.of_int seed) ~jobs
        ~scenario:
          (Printf.sprintf "compare family=%s c=%g trials=%d" spec.family c
             trials)
        ()
    in
    with_family spec (fun lf ->
        with_obs ~meta ~trace (fun obs ->
            with_jobs jobs (fun pool ->
                let plan = Guideline.plan ~obs lf ~c in
                let policies =
                  ("guideline", plan.Guideline.schedule)
                  :: List.map
                       (fun b -> (b.Baselines.name, b.Baselines.schedule))
                       (Baselines.all lf ~c)
                in
                let runs =
                  Monte_carlo.compare_policies ~obs ?pool ~trials lf ~c
                    ~policies ~seed:(Int64.of_int seed)
                in
                List.iter
                  (fun r ->
                    finite
                      (r.Monte_carlo.policy_name ^ " mean work")
                      r.Monte_carlo.mean_work_per_episode)
                  runs;
                Format.printf "life function : %a@." Life_function.pp lf;
                Format.printf "policies ranked by mean work per episode \
                               (n=%d, shared reclaim stream):@."
                  trials;
                List.iter
                  (fun r ->
                    Format.printf "  %-20s : %12.6f@."
                      r.Monte_carlo.policy_name
                      r.Monte_carlo.mean_work_per_episode)
                  runs)))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Monte-Carlo-race the guideline schedule against the naive \
          baseline policies on a shared reclaim stream.")
    Term.(
      const run $ family_term $ c_term $ trials $ seed $ jobs_term
      $ trace_term)

(* ------------------------------------------------------------------ *)
(* table                                                               *)

let table_cmd =
  let c_min =
    Arg.(
      value & opt float 0.5
      & info [ "c-min" ] ~docv:"C" ~doc:"Smallest overhead in the sweep.")
  in
  let c_max =
    Arg.(
      value & opt float 4.0
      & info [ "c-max" ] ~docv:"C" ~doc:"Largest overhead in the sweep.")
  in
  let steps =
    Arg.(
      value & opt int 8
      & info [ "steps" ] ~docv:"N" ~doc:"Number of grid points.")
  in
  let run spec c_min c_max steps jobs =
    with_family spec (fun lf ->
        if steps < 1 then
          invalid_arg
            (Printf.sprintf "table: steps must be >= 1, got %d" steps);
        if not (c_min > 0.0 && c_max >= c_min) then
          invalid_arg
            (Printf.sprintf
               "table: need 0 < c-min <= c-max, got c-min %g, c-max %g" c_min
               c_max);
        with_jobs jobs (fun pool ->
            let grid =
              if steps = 1 then [ c_min ]
              else
                List.init steps (fun i ->
                    c_min
                    +. (c_max -. c_min) *. float_of_int i
                       /. float_of_int (steps - 1))
            in
            let results =
              Guideline.plan_batch ?pool (List.map (fun c -> (lf, c)) grid)
            in
            Format.printf "life function : %a@." Life_function.pp lf;
            Format.printf "%9s  %9s  %7s  %12s@." "c" "t0" "periods"
              "E[work]";
            List.iter2
              (fun c r ->
                Format.printf "%9.4f  %9.4f  %7d  %12.6f@." c r.Guideline.t0
                  (Schedule.num_periods r.Guideline.schedule)
                  r.Guideline.expected_work)
              grid results))
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Sweep the guideline planner over an overhead grid and print the \
          schedule table (one batch, parallel with --jobs).")
    Term.(const run $ family_term $ c_min $ c_max $ steps $ jobs_term)

(* ------------------------------------------------------------------ *)
(* admissible                                                          *)

let admissible_cmd =
  let run spec c =
    with_family spec (fun lf ->
        Format.printf "life function : %a@." Life_function.pp lf;
        match Admissibility.test lf ~c with
        | Admissibility.Admissible { witness; margin } ->
            Format.printf
              "verdict       : admissible (Cor 3.2 margin %.4g at t = %.4g)@."
              margin witness
        | Admissibility.Inadmissible (Admissibility.Unbounded_work { tail_ratio }) ->
            Format.printf
              "verdict       : INADMISSIBLE — expected work unbounded (tail \
               panel ratio %.3f)@."
              tail_ratio
        | Admissibility.Inadmissible (Admissibility.Heavy_tail { tail_ratio }) ->
            Format.printf
              "verdict       : INADMISSIBLE — polynomial tail (panel ratio \
               %.3f ~ 2^(1-d))@."
              tail_ratio
        | Admissibility.Inadmissible (Admissibility.Negative_margin { max_margin }) ->
            Format.printf
              "verdict       : INADMISSIBLE — Cor 3.2 margin negative \
               everywhere (max %.4g)@."
              max_margin)
  in
  Cmd.v
    (Cmd.info "admissible"
       ~doc:"Test whether a life function admits an optimal schedule.")
    Term.(const run $ family_term $ c_term)

(* ------------------------------------------------------------------ *)
(* fit                                                                 *)

let fit_cmd =
  let model =
    Arg.(
      value & opt string "exponential"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Owner model to synthesize absences from: exponential | uniform \
             | weibull | coffee | day-night.")
  in
  let mean =
    Arg.(
      value & opt float 40.0
      & info [ "mean" ] ~docv:"M" ~doc:"Mean absence (model parameter).")
  in
  let samples =
    Arg.(
      value & opt int 1000
      & info [ "samples" ] ~docv:"N" ~doc:"Number of absences to synthesize.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let run c model mean samples seed =
    let owner =
      match model with
      | "exponential" -> Ok (Owner_model.Exponential_absence { mean })
      | "uniform" -> Ok (Owner_model.Uniform_absence { max = 2.0 *. mean })
      | "weibull" ->
          Ok (Owner_model.Weibull_absence { shape = 2.0; scale = mean *. 1.13 })
      | "coffee" ->
          Ok (Owner_model.Coffee_break { typical = mean; spread = mean /. 4.0 })
      | "day-night" ->
          Ok
            (Owner_model.Day_night
               {
                 short_mean = mean /. 2.0;
                 long_mean = mean *. 10.0;
                 long_fraction = 0.15;
               })
      | other -> Error (Printf.sprintf "unknown owner model %S" other)
    in
    match owner with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok owner ->
        or_exit @@ fun () ->
        let rng = Prng.create ~seed:(Int64.of_int seed) in
        let ds = Array.init samples (fun _ -> Owner_model.sample owner rng) in
        let est = Survival.of_durations ds in
        let fit = Fit.best_fit ds in
        Format.printf "synthesized %d absences, sample mean %.3f@." samples
          (Stats.mean ds);
        Format.printf "nonparametric estimate: %a@." Life_function.pp
          est.Survival.life;
        Format.printf "best parametric fit   : %s (SSE %.4f)@." fit.Fit.family
          fit.Fit.sse;
        List.iter
          (fun (k, v) -> Format.printf "  %-10s = %.6f@." k v)
          fit.Fit.params;
        let plan = Guideline.plan fit.Fit.life ~c in
        Format.printf "guideline schedule from the fit: %a@." Schedule.pp
          plan.Guideline.schedule;
        Format.printf "expected work: %.4f@." plan.Guideline.expected_work
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:
         "Synthesize owner-absence data, fit a life function, and schedule \
          with it.")
    Term.(const run $ c_term $ model $ mean $ samples $ seed)

(* ------------------------------------------------------------------ *)
(* checkpoint                                                          *)

let checkpoint_cmd =
  let work =
    Arg.(
      value & opt float 720.0
      & info [ "work" ] ~docv:"W" ~doc:"Total computation to complete.")
  in
  let mtbf =
    Arg.(
      value & opt float 240.0
      & info [ "mtbf" ] ~docv:"T" ~doc:"Mean time between failures.")
  in
  let restart =
    Arg.(
      value & opt float 10.0
      & info [ "restart" ] ~docv:"R" ~doc:"Restart cost after a failure.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let run c work mtbf restart seed =
    or_exit @@ fun () ->
      let life = Families.exponential ~rate:(1.0 /. mtbf) in
      let plan = Checkpoint.plan_saves ~work life ~c in
      let g = Prng.create ~seed:(Int64.of_int seed) in
      let r =
        Checkpoint.simulate_restarts ~work ~c ~restart_cost:restart life g
          ~max_failures:1_000_000
      in
      finite "makespan" r.Checkpoint.makespan;
      finite "recomputed work" r.Checkpoint.work_lost_total;
      Format.printf "checkpoint every %.4f (first interval); %d intervals@."
        (Schedule.period plan.Checkpoint.intervals 0)
        (Schedule.num_periods plan.Checkpoint.intervals);
      Format.printf "expected committed before first failure: %.3f@."
        plan.Checkpoint.expected_committed;
      Format.printf
        "one simulated run: makespan %.1f, %d failures, %.1f recomputed, %d \
         checkpoints written@."
        r.Checkpoint.makespan r.Checkpoint.failures r.Checkpoint.work_lost_total
        r.Checkpoint.checkpoints_written
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Plan and simulate checkpointing for a fault-prone computation.")
    Term.(const run $ c_term $ work $ mtbf $ restart $ seed)

(* ------------------------------------------------------------------ *)
(* worst-case                                                           *)

let worst_case_cmd =
  let horizon =
    Arg.(
      value & opt float 100.0
      & info [ "horizon" ] ~docv:"H"
          ~doc:"Latest adversarial kill time designed for.")
  in
  let grace =
    Arg.(
      value
      & opt (some float) None
      & info [ "grace" ] ~docv:"G"
          ~doc:"Warm-up before the guarantee applies (default 5c).")
  in
  let run c horizon grace =
    or_exit @@ fun () ->
      let w = Worst_case.plan ?grace ~c ~horizon () in
      Format.printf "schedule : %a@." Schedule.pp w.Worst_case.schedule;
      Format.printf
        "guarantee: for every kill time t in [%.4g, %.4g], banked work >= \
         %.2f%% of the omniscient (t - c)@."
        w.Worst_case.grace w.Worst_case.horizon
        (100.0 *. w.Worst_case.ratio);
      List.iter
        (fun (name, lf) ->
          Format.printf "  expected work under %-22s: %8.3f@." name
            (Schedule.expected_work ~c lf w.Worst_case.schedule))
        (Families.all_paper_scenarios ~c)
  in
  Cmd.v
    (Cmd.info "worst-case"
       ~doc:
         "Compute a competitive (adversarial) schedule with a guaranteed \
          fraction of omniscient work.")
    Term.(const run $ c_term $ horizon $ grace)

(* ------------------------------------------------------------------ *)
(* distribution                                                         *)

let distribution_cmd =
  let run spec c =
    with_family spec (fun lf ->
        let plan = Guideline.plan lf ~c in
        let d = Work_distribution.of_schedule lf ~c plan.Guideline.schedule in
        Format.printf "schedule : %a@." Schedule.pp plan.Guideline.schedule;
        Format.printf "mean %.4f, stddev %.4f, P(work = 0) = %.2f%%@."
          d.Work_distribution.mean d.Work_distribution.stddev
          (100.0 *. Work_distribution.prob_zero d);
        Format.printf "quantiles: q10 %.3f | median %.3f | q90 %.3f@."
          (Work_distribution.quantile d ~q:0.1)
          (Work_distribution.quantile d ~q:0.5)
          (Work_distribution.quantile d ~q:0.9);
        Format.printf "law:@.";
        Array.iter
          (fun (w, pr) -> Format.printf "  P(work = %8.3f) = %.4f@." w pr)
          d.Work_distribution.outcomes)
  in
  Cmd.v
    (Cmd.info "distribution"
       ~doc:
         "Print the exact banked-work distribution of the guideline \
          schedule for a scenario.")
    Term.(const run $ family_term $ c_term)

(* ------------------------------------------------------------------ *)
(* profile                                                              *)

let profile_cmd =
  let trials =
    Arg.(
      value & opt int 2_000
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo episodes to profile.")
  in
  let seed =
    Arg.(
      value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let out =
    Arg.(
      value
      & opt string "profile_trace.json"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Where to write the Chrome trace-event JSON (load it in \
             $(b,chrome://tracing) or $(b,https://ui.perfetto.dev)).")
  in
  let tree =
    Arg.(
      value & flag
      & info [ "tree" ]
          ~doc:
            "Also print the aggregated self-time/total-time span tree \
             (per-span wall times vary run to run).")
  in
  let run spec c trials seed out tree =
    with_family spec (fun lf ->
        let recorder = Obs.Span.create () in
        let obs = Obs.create ~spans:recorder () in
        let plan = Guideline.plan ~obs lf ~c in
        let (_ : Monte_carlo.estimate) =
          Monte_carlo.estimate ~obs ~trials lf ~c
            ~schedule:plan.Guideline.schedule ~seed:(Int64.of_int seed)
        in
        let doc = Obs.Span.to_chrome_json recorder in
        (try
           let oc = open_out out in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () -> output_string oc (Jsonx.to_string doc ^ "\n"))
         with Sys_error msg ->
           prerr_endline ("error: " ^ msg);
           exit 1);
        (* Round-trip the emitted JSON through the parser and validate
           the trace-event shape — the cram test keys on this line. *)
        let round_trip =
          Result.bind
            (Jsonx.of_string (Jsonx.to_string doc))
            Obs_span.validate_chrome
        in
        (match round_trip with
        | Ok (events, depth) ->
            Format.printf "trace summary: %d events, max depth %d, \
                           round-trip ok@."
              events depth
        | Error msg ->
            prerr_endline ("error: invalid Chrome trace: " ^ msg);
            exit 1);
        (if Obs.Span.dropped recorder > 0 then
           Format.printf "note: %d span(s) dropped at the buffer cap@."
             (Obs.Span.dropped recorder));
        Format.printf "wrote %s@." out;
        if tree then
          Format.printf "%a"
            Trace_report.pp_span_tree
            (Trace_report.span_tree (Obs.Span.spans recorder)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a plan + Monte-Carlo run with hierarchical spans and \
          export a Chrome trace-event JSON.")
    Term.(const run $ family_term $ c_term $ trials $ seed $ out $ tree)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "data-parallel cycle-stealing schedules for networks of workstations \
     (reproduction of Rosenberg, TR 98-15 / IPPS 1998)"
  in
  let info = Cmd.info "csctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            schedule_cmd;
            bounds_cmd;
            simulate_cmd;
            compare_cmd;
            table_cmd;
            admissible_cmd;
            fit_cmd;
            checkpoint_cmd;
            worst_case_cmd;
            distribution_cmd;
            profile_cmd;
          ]))
