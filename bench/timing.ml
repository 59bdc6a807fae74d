(* T1 — Bechamel micro-benchmarks of the core algorithms: one Test.make
   per hot path, estimated by a trimmed through-origin OLS
   (Bench_fit) over the raw monotonic-clock samples. Two harness
   defenses against noisy hosts: every thunk is warmed before sampling
   (so allocation-rate ramp-up and lazy initialisation don't pollute the
   samples), and per-sample rates outside central quantiles are trimmed
   before fitting (so preemption/GC spikes can't crater r^2 — the seed's
   reclaim-draw fit sat at r^2 ~ 0.34 without this).

   Besides the printed table, the run writes BENCH_T1.json (schema v2:
   ns/call + r^2 per benchmark plus git SHA / OCaml / hostname metadata)
   and appends the same record to BENCH_HISTORY.jsonl, the append-only
   bench trajectory consumed by `csbench diff/check/history`.

   The "episode-run (obs ...)" variants pin the observability overhead
   budget: disabled and null-sink must be statistically
   indistinguishable from the uninstrumented baseline (the ?obs default
   — including the span-recorder test — is one branch), and the spans
   variant bounds the live-recorder cost. *)

open Bechamel
open Toolkit

let uniform_lf = Families.uniform ~lifespan:100.0
let geo_dec_lf = Families.geometric_decreasing ~a:(exp 0.05)
let geo_inc_lf = Families.geometric_increasing ~lifespan:30.0
let weibull_lf = Families.weibull ~shape:1.5 ~scale:100.0
let weibull_t0 = (Guideline.plan weibull_lf ~c:1.0).Guideline.t0
let schedule = (Guideline.plan uniform_lf ~c:1.0).Guideline.schedule

(* The episode-run rows and the closed-form reclaim-draw row sample from
   uniform_lf. The fitted rows plan and sample a trace fit (a Kaplan–Meier
   PCHIP through 1000 censored day/night absences, like the e2e simulate
   workload's fitted scenarios), whose draws invert the interpolant. *)
let sampler = Reclaim.create uniform_lf

let fitted_lf =
  let model =
    Owner_model.Day_night
      { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 }
  in
  let obs =
    Owner_model.collect ~censor_at:960.0 model (Prng.create ~seed:4L) ~n:1000
  in
  (Survival.of_observations obs).Survival.life

let fitted_sampler = Reclaim.create fitted_lf

(* A long schedule: 198 periods, like the e2e simulate workload's
   heavy-tailed scenarios. A trial still visits only a few periods, so
   this row prices a replay that must not cost in proportion to the
   schedule's length. *)
let long_lf = Families.weibull ~shape:0.8 ~scale:60.0
let long_schedule = (Guideline.plan long_lf ~c:1.0).Guideline.schedule
let long_sampler = Reclaim.create long_lf

(* The episode-play rows price a Monte-Carlo trial: one replay table per
   schedule, built before sampling, and a draw played through it. *)
let replay = Episode.replay schedule ~c:1.0
let long_replay = Episode.replay long_schedule ~c:1.0

(* The sink-emit fixture prices the trace writer itself, one event per
   call. It is lazy so that non-timing subcommands open no temporary
   file at module init; the warmup loop forces it before sampling. *)
let sink_event =
  Obs_event.Period_completed
    { time = 1.0; ws = 0; ep = 1; period = 2.0; banked = 1.5; overhead = 0.5 }

let jsonl_sink =
  lazy
    (let path = Filename.temp_file "cs_bench_sink" ".jsonl" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Obs.Sink.Jsonl (open_out path))

(* The e2e farm workload's fleet at its centres. A run of the guideline
   policy plans each workstation once, so this row prices four plans and
   the event loop of one run. *)
let farm_config =
  {
    Farm.c = 1.0;
    total_work = 300.0;
    workstations =
      List.map
        (fun (ws_life, ws_presence_mean) -> { Farm.ws_life; ws_presence_mean })
        [
          (Families.uniform ~lifespan:100.0, 45.0);
          (Families.geometric_decreasing ~a:(exp 0.03), 60.0);
          (Families.geometric_increasing ~lifespan:40.0, 30.0);
          (Families.weibull ~shape:1.5 ~scale:80.0, 50.0);
        ];
    policy = Farm.guideline_policy;
    max_time = 1e7;
  }

(* The e2e farm-adaptive workload's run at the same centres: the §6
   progressive policy on 80 units of work. *)
let adaptive_farm_config =
  { farm_config with Farm.total_work = 80.0; policy = Farm.adaptive_policy }

(* (name, thunk, warmup iterations). Cheap thunks get large warmups;
   planner-grade ones only need a few calls to fault everything in. *)
let serial_workloads : (string * (unit -> unit) * int) list =
  [
    ( "recurrence-step (uniform)",
      (fun () ->
        ignore
          (Recurrence.next_period uniform_lf ~c:1.0 ~prev_period:10.0
             ~prev_end:20.0)),
      2_000 );
    ( "recurrence-generate (uniform, ~13 periods)",
      (fun () -> ignore (Recurrence.generate uniform_lf ~c:1.0 ~t0:13.6)),
      500 );
    ( "expected-work (13 periods)",
      (fun () -> ignore (Schedule.expected_work ~c:1.0 uniform_lf schedule)),
      2_000 );
    ( "t0-objective (uniform, ~13 periods)",
      (fun () ->
        ignore (Recurrence.expected_work_at uniform_lf ~c:1.0 ~t0:13.6)),
      500 );
    (* The transcendental case: each period end costs a pow and an exp. *)
    ( "t0-objective (weibull k=1.5)",
      (fun () ->
        ignore (Recurrence.expected_work_at weibull_lf ~c:1.0 ~t0:weibull_t0)),
      500 );
    ( "t0-bracket (Thm 3.2/3.3, uniform)",
      (fun () -> ignore (Bounds.bracket uniform_lf ~c:1.0)),
      100 );
    (* One constructor call per paper family, at the centres of the e2e
       plan-cold draw: a plan-cold op builds one of them, then plans. *)
    ( "family-make (six paper families)",
      (fun () ->
        ignore (Families.uniform ~lifespan:120.0);
        ignore (Families.polynomial ~d:2 ~lifespan:120.0);
        ignore (Families.geometric_decreasing ~a:(exp 0.045));
        ignore (Families.exponential ~rate:0.045);
        ignore (Families.geometric_increasing ~lifespan:40.0);
        ignore (Families.weibull ~shape:1.55 ~scale:120.0)),
      200 );
    ( "guideline-plan (uniform)",
      (fun () -> ignore (Guideline.plan uniform_lf ~c:1.0)),
      5 );
    ( "guideline-plan (geo-dec)",
      (fun () -> ignore (Guideline.plan geo_dec_lf ~c:1.0)),
      5 );
    ( "guideline-plan (weibull k=1.5, log-concave)",
      (fun () -> ignore (Guideline.plan weibull_lf ~c:1.0)),
      5 );
    (* A trace fit declares no shape, so this row keeps the grid search
       and the 512-cell bracket scan measured. *)
    ( "guideline-plan (trace fit, unknown shape)",
      (fun () -> ignore (Guideline.plan fitted_lf ~c:1.0)),
      5 );
    ( "farm-run (guideline, 4 workstations)",
      (fun () -> ignore (Farm.run farm_config ~seed:1L)),
      5 );
    ( "farm-run (adaptive, 4 workstations)",
      (fun () -> ignore (Farm.run adaptive_farm_config ~seed:1L)),
      5 );
    ( "exact-uniform ([3] closed form)",
      (fun () -> ignore (Exact.uniform ~c:1.0 ~lifespan:100.0)),
      200 );
    ( "lambert-t* (geo-dec closed form)",
      (fun () -> ignore (Closed_forms.geo_dec_t_optimal ~a:(exp 0.05) ~c:1.0)),
      2_000 );
    ( "optimizer (geo-inc, coordinate ascent)",
      (fun () ->
        ignore (Optimizer.optimal_schedule ~m_max:4 ~patience:1 geo_inc_lf ~c:1.0)),
      2 );
    ( "episode-run (13 periods)",
      (let g = Prng.create ~seed:1L in
       fun () ->
         ignore (Episode.run schedule ~c:1.0 ~reclaim_at:(Reclaim.draw sampler g))),
      2_000 );
    ( "episode-run (weibull k=0.8, 198 periods)",
      (let g = Prng.create ~seed:1L in
       fun () ->
         ignore
           (Episode.run long_schedule ~c:1.0
              ~reclaim_at:(Reclaim.draw long_sampler g))),
      2_000 );
    ( "episode-play (13 periods)",
      (let g = Prng.create ~seed:1L in
       fun () ->
         ignore (Episode.play replay ~reclaim_at:(Reclaim.draw sampler g))),
      2_000 );
    ( "episode-play (weibull k=0.8, 198 periods)",
      (let g = Prng.create ~seed:1L in
       fun () ->
         ignore
           (Episode.play long_replay ~reclaim_at:(Reclaim.draw long_sampler g))),
      2_000 );
    ( "episode-replay (198 periods)",
      (fun () -> ignore (Episode.replay long_schedule ~c:1.0)),
      200 );
    ( "episode-run (obs disabled)",
      (let g = Prng.create ~seed:1L in
       fun () ->
         ignore
           (Episode.run ~obs:Obs.disabled schedule ~c:1.0
              ~reclaim_at:(Reclaim.draw sampler g))),
      2_000 );
    ( "episode-run (obs null sink)",
      (let g = Prng.create ~seed:1L in
       let obs = Obs.create ~sink:Obs.Sink.Null () in
       fun () ->
         ignore
           (Episode.run ~obs schedule ~c:1.0 ~reclaim_at:(Reclaim.draw sampler g))),
      2_000 );
    ( "episode-run (obs spans)",
      (let g = Prng.create ~seed:1L in
       (* A fresh recorder per call would measure allocation, not
          recording; reuse one and let it hit its cap — after that each
          episode costs the enter/exit path plus the drop branch, which
          is the steady-state profile cost. *)
       let obs = Obs.create ~spans:(Obs.Span.create ~max_spans:100_000 ()) () in
       fun () ->
         ignore
           (Episode.run ~obs schedule ~c:1.0 ~reclaim_at:(Reclaim.draw sampler g))),
      2_000 );
    (* One encode + write to a warm out_channel: the --trace cost per
       event. *)
    ( "sink-emit (jsonl)",
      (fun () -> Obs.Sink.emit (Lazy.force jsonl_sink) sink_event),
      2_000 );
    (* The sub-30ns thunks are measured 64 calls per invocation:
       one clock read per ~1 µs of work instead of per ~20 ns, which is
       what keeps their OLS fit out of the clock-granularity noise floor
       (single-call variants sat at r^2 ~ 0.6-0.7). Reported time/call
       is therefore per x64 batch. *)
    ( "reclaim-draw (fitted PCHIP inverse, x64)",
      (let g = Prng.create ~seed:2L in
       fun () ->
         for _ = 1 to 64 do
           ignore (Reclaim.draw fitted_sampler g)
         done),
      200 );
    ( "reclaim-draw (closed-form inverse, x64)",
      (let g = Prng.create ~seed:2L in
       fun () ->
         for _ = 1 to 64 do
           ignore (Reclaim.draw sampler g)
         done),
      200 );
    ( "prng-xoshiro256++ (float, x64)",
      (let g = Prng.create ~seed:3L in
       fun () ->
         for _ = 1 to 64 do
           ignore (Prng.float g)
         done),
      200 );
    ( "mc-estimate-20k (serial)",
      (fun () ->
        ignore
          (Monte_carlo.estimate ~trials:20_000 uniform_lf ~c:1.0 ~schedule
             ~seed:7L)),
      1 );
  ]

(* The "(parallel)" variants are sampled in a second pass, with the pool
   alive only for that pass: on OCaml 5 every live domain participates
   in stop-the-world minor collections, so a resident pool measurably
   degrades unrelated serial benchmarks on small hosts — the serial
   numbers must stay comparable whatever --jobs was. [pool] is [None]
   when --jobs is 1; the variants then degrade to serial, so their names
   (which the regression gate keys on) never change. *)
let parallel_workloads ~(pool : Domain_pool.t option) :
    (string * (unit -> unit) * int) list =
  [
    ( "mc-estimate-20k (parallel)",
      (fun () ->
        ignore
          (Monte_carlo.estimate ?pool ~trials:20_000 uniform_lf ~c:1.0
             ~schedule ~seed:7L)),
      1 );
    ( "optimizer (geo-inc, parallel)",
      (fun () ->
        ignore
          (Optimizer.optimal_schedule ?pool ~m_max:4 ~patience:1 geo_inc_lf
             ~c:1.0)),
      2 );
  ]

let min_r2_warn = 0.5

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Warm, sample, and fit one workload list. Grouping under "cyclesteal"
   prefixes every benchmark name with "cyclesteal/" in the results. *)
let sample_workloads ~quota_seconds ~warmup_scale workloads =
  List.iter
    (fun (_, f, warmup) ->
      for _ = 1 to Stdlib.max 1 (warmup / warmup_scale) do
        f ()
      done)
    workloads;
  let tests =
    List.map (fun (name, f, _) -> Test.make ~name (Staged.stage f)) workloads
  in
  let instance = Instance.monotonic_clock in
  let clock_label = Measure.label instance in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_seconds) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"cyclesteal" tests)
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name (b : Benchmark.t) ->
      let samples = b.Benchmark.lr in
      let runs =
        Array.map (fun m -> Measurement_raw.run m) samples
      in
      let nanos =
        Array.map (fun m -> Measurement_raw.get ~label:clock_label m) samples
      in
      let fit =
        if Array.length runs = 0 then
          { Bench_fit.ns_per_run = Float.nan; r_square = Float.nan; kept = 0; total = 0 }
        else Bench_fit.trimmed ~runs ~nanos ()
      in
      rows := (name, fit) :: !rows)
    raw;
  !rows

let run ?(quick = false) ?(jobs = 1) () =
  let quota_seconds = if quick then 0.05 else 0.5 in
  let warmup_scale = if quick then 10 else 1 in
  let serial_rows =
    sample_workloads ~quota_seconds ~warmup_scale serial_workloads
  in
  let parallel_rows =
    let pool =
      if jobs > 1 then Some (Domain_pool.create ~domains:jobs) else None
    in
    Fun.protect ~finally:(fun () -> Option.iter Domain_pool.shutdown pool)
    @@ fun () ->
    sample_workloads ~quota_seconds ~warmup_scale (parallel_workloads ~pool)
  in
  let rows =
    List.sort
      (fun (_, a) (_, b) ->
        Float.compare a.Bench_fit.ns_per_run b.Bench_fit.ns_per_run)
      (serial_rows @ parallel_rows)
  in
  Tbl.render
    ~title:
      "T1  Bechamel micro-benchmarks (trimmed through-origin OLS per call)"
    ~header:[ "operation"; "time/call"; "r^2"; "kept" ]
    (List.map
       (fun (name, fit) ->
         let ns = fit.Bench_fit.ns_per_run in
         let time =
           if Float.is_nan ns then "n/a"
           else if ns < 1e3 then Printf.sprintf "%.1f ns" ns
           else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.2f ms" (ns /. 1e6)
         in
         [
           name;
           time;
           (if Float.is_nan fit.Bench_fit.r_square then "n/a"
            else Tbl.f3 fit.Bench_fit.r_square);
           Printf.sprintf "%d/%d" fit.Bench_fit.kept fit.Bench_fit.total;
         ])
       rows);
  List.iter
    (fun (name, fit) ->
      let r2 = fit.Bench_fit.r_square in
      if Float.is_nan r2 || r2 < min_r2_warn then
        Printf.printf
          "warning: %s fits at r^2 %s (< %.2f) — treat its estimate as noise\n"
          name
          (if Float.is_nan r2 then "n/a" else Printf.sprintf "%.3f" r2)
          min_r2_warn)
    rows;
  (* Parallel speedup vs the serial baseline of the same run. Printed,
     not gated: it depends on the host's core count, which the ns/call
     table and BENCH_T1.json already capture per-name. *)
  let ns_of n =
    List.assoc_opt n
      (List.map (fun (name, fit) -> (name, fit.Bench_fit.ns_per_run)) rows)
  in
  let speedup label serial parallel =
    match (ns_of serial, ns_of parallel) with
    | Some s, Some p
      when Float.is_finite s && Float.is_finite p && s > 0.0 && p > 0.0 ->
        Printf.printf "%s speedup: %.2fx on %d domain(s)\n" label (s /. p) jobs
    | _ -> ()
  in
  speedup "mc-estimate-20k" "cyclesteal/mc-estimate-20k (serial)"
    "cyclesteal/mc-estimate-20k (parallel)";
  speedup "optimizer" "cyclesteal/optimizer (geo-inc, coordinate ascent)"
    "cyclesteal/optimizer (geo-inc, parallel)";
  let record =
    Bench_record.make ~ocaml:Sys.ocaml_version ~git_sha:(git_sha ())
      ~hostname:(Unix.gethostname ()) ~quota_seconds ~unix_time:(Unix.time () [@lint.allow "R8"])
      (List.map
         (fun (name, fit) ->
           ( name,
             {
               Bench_record.ns_per_call = fit.Bench_fit.ns_per_run;
               r_square = fit.Bench_fit.r_square;
               advisory = not (Bench_fit.reliable fit);
             } ))
         rows)
  in
  Bench_record.save "BENCH_T1.json" record;
  Bench_record.append_history "BENCH_HISTORY.jsonl" record;
  print_endline "wrote BENCH_T1.json; appended BENCH_HISTORY.jsonl"
