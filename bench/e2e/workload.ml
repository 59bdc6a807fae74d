(* The four workloads: seeded inputs, the timed call into the library,
   its output check, and the traced variant that feeds the ledger.

   Inputs come only from the Prng streams [E2e] hands in, so one
   seed gives the same inputs on every commit. Within a workload, the
   parameter ranges are fixed and the seed only moves values inside them,
   so the cost of an average op does not depend on the seed. *)

type op = {
  run : unit -> unit;  (** The timed call; keeps its result for [check]. *)
  check : unit -> bool;  (** Output check, run untimed after [run]. *)
  value : unit -> float;  (** This op's term of the output digest. *)
  trace : Ledger.t -> unit;
      (** Traced re-run plus per-layer measurements, after [run]. *)
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  nominal_ops : int;
      (** Op count the sizes are scaled from: the untimed warm-up runs 2%
          of it, [--quick] runs 0.5% of it. *)
  prepare : Prng.t -> int -> Prng.t -> op;
      (** [prepare setup] builds the workload's state from the setup
          stream and returns the op generator: [next i g] draws the
          inputs of op [i] from [g]. *)
}

let uniform_in g lo hi = Prng.float_range g ~lo ~hi

(* Multiplies a fixed centre by a seeded factor within 3%. *)
let jitter g x = x *. uniform_in g 0.97 1.03

(* --- life-function families -------------------------------------------- *)

type family =
  | Uniform of float
  | Polynomial of int * float
  | Geo_dec of float
  | Exponential of float
  | Geo_inc of float
  | Weibull of float * float

let make_family = function
  | Uniform l -> Families.uniform ~lifespan:l
  | Polynomial (d, l) -> Families.polynomial ~d ~lifespan:l
  | Geo_dec a -> Families.geometric_decreasing ~a
  | Exponential rate -> Families.exponential ~rate
  | Geo_inc l -> Families.geometric_increasing ~lifespan:l
  | Weibull (shape, scale) -> Families.weibull ~shape ~scale

let draw_family g =
  match Prng.int g ~bound:6 with
  | 0 -> Uniform (uniform_in g 40.0 200.0)
  | 1 -> Polynomial (2 + Prng.int g ~bound:2, uniform_in g 40.0 200.0)
  | 2 -> Geo_dec (exp (uniform_in g 0.01 0.08))
  | 3 -> Exponential (uniform_in g 0.01 0.08)
  | 4 -> Geo_inc (uniform_in g 20.0 60.0)
  | _ -> Weibull (uniform_in g 0.6 2.5, uniform_in g 40.0 200.0)

(* --- plan-cold ------------------------------------------------------------ *)

(* The paper's claims about one plan, at the tolerances the unit tests
   use for the same comparisons (test_guideline, test_recurrence), except
   uniform t0. E is flat in t0 near its maximum, so the guideline's t0
   sits up to 2e-4 (relative) from the exact one over the seeded range,
   while E agrees to 2e-7; t0 is checked to 1e-3. *)
let plan_ok fam lf ~c (r : Guideline.result) =
  let lo, hi = r.Guideline.bracket in
  let s = r.Guideline.schedule in
  let in_bracket = r.Guideline.t0 >= lo -. 1e-9 && r.Guideline.t0 <= hi +. 1e-9 in
  let e_ok = Tol.equal r.Guideline.expected_work (Schedule.expected_work ~c lf s) in
  let residuals_ok =
    Array.for_all (fun x -> Float.abs x <= 1e-6) (Recurrence.residuals lf ~c s)
  in
  let geo_dec_ok a = Tol.equal ~eps:1e-4 (Closed_forms.geo_dec_t_optimal ~a ~c) r.Guideline.t0 in
  let family_ok =
    match fam with
    | Uniform l ->
        let e = Exact.uniform ~c ~lifespan:l in
        Tol.equal ~eps:1e-6 e.Exact.expected_work r.Guideline.expected_work
        && Tol.equal ~eps:1e-3 e.Exact.t0 r.Guideline.t0
    | Geo_dec a -> geo_dec_ok a
    | Exponential rate -> geo_dec_ok (exp rate)
    | Polynomial _ | Geo_inc _ | Weibull _ -> true
  in
  in_bracket && e_ok && residuals_ok && family_ok

let plan_cold =
  let prepare _setup =
    let seen = Ledger.new_seen () in
    fun _i g ->
      let fam = draw_family g in
      let c = uniform_in g 0.5 3.0 in
      let result = ref None in
      let run () =
        let lf = make_family fam in
        result := Some (lf, Guideline.plan lf ~c)
      in
      let check () =
        match !result with Some (lf, r) -> plan_ok fam lf ~c r | None -> false
      in
      let value () =
        match !result with Some (_, r) -> r.Guideline.expected_work | None -> 0.0
      in
      let trace l =
        let t0 = Obs_clock.now () in
        let lf = make_family fam in
        let make_us = Ledger.us_since t0 in
        let r, obs = Ledger.spanned () in
        ignore (Guideline.plan ~obs lf ~c : Guideline.result);
        Ledger.add l "traced_us" (Ledger.us_since t0);
        Ledger.add l "make_us" make_us;
        Ledger.add l "makes" 1.0;
        Ledger.add_spans l r;
        Ledger.note_plan l seen lf ~c;
        Ledger.count_plan_calls l lf ~c;
        Ledger.eval_cost l lf
      in
      { run; check; value; trace }
  in
  { name = "plan-cold"; nominal_ops = 20_000; prepare }

(* --- simulate ------------------------------------------------------------- *)

type scenario = { lf : Life_function.t; c : float; schedule : Schedule.t }

let trials = 20_000

(* Twelve paper-family scenarios and four trace-fitted ones, at fixed
   centres moved by the seed; planning and fitting happen here, in set-up. *)
let simulate_scenarios g =
  let paper =
    [
      (Uniform 100.0, 1.0);
      (Uniform 60.0, 2.0);
      (Polynomial (2, 100.0), 1.0);
      (Polynomial (3, 80.0), 1.5);
      (Geo_dec (exp 0.05), 1.0);
      (Geo_dec (exp 0.02), 2.0);
      (Exponential 0.03, 1.0);
      (Exponential 0.06, 0.5);
      (Geo_inc 30.0, 1.0);
      (Geo_inc 45.0, 2.0);
      (Weibull (1.5, 100.0), 1.0);
      (Weibull (0.8, 60.0), 1.0);
    ]
  in
  let jitter_family = function
    | Uniform l -> Uniform (jitter g l)
    | Polynomial (d, l) -> Polynomial (d, jitter g l)
    | Geo_dec a -> Geo_dec (exp (jitter g (log a)))
    | Exponential rate -> Exponential (jitter g rate)
    | Geo_inc l -> Geo_inc (jitter g l)
    | Weibull (shape, scale) -> Weibull (jitter g shape, jitter g scale)
  in
  let paper =
    List.map (fun (fam, c) -> (make_family (jitter_family fam), jitter g c)) paper
  in
  let fitted =
    List.map
      (fun (model, censor_at, c) ->
        let obs = Owner_model.collect ~censor_at model g ~n:1000 in
        ((Survival.of_observations obs).Survival.life, jitter g c))
      [
        ( Owner_model.Day_night
            { short_mean = jitter g 15.0; long_mean = jitter g 480.0; long_fraction = 0.15 },
          960.0,
          2.0 );
        ( Owner_model.Day_night
            { short_mean = jitter g 10.0; long_mean = jitter g 240.0; long_fraction = 0.25 },
          720.0,
          1.0 );
        (Owner_model.Coffee_break { typical = jitter g 10.0; spread = 3.0 }, 60.0, 0.5);
        (Owner_model.Coffee_break { typical = jitter g 20.0; spread = 5.0 }, 90.0, 1.0);
      ]
  in
  Array.of_list
    (List.map
       (fun (lf, c) -> { lf; c; schedule = (Guideline.plan lf ~c).Guideline.schedule })
       (paper @ fitted))

let simulate =
  let prepare setup =
    let scenarios = simulate_scenarios setup in
    fun i g ->
      let { lf; c; schedule } = scenarios.(i mod Array.length scenarios) in
      let seed = Prng.next_int64 g in
      let result = ref None in
      let run () = result := Some (Monte_carlo.estimate ~trials lf ~c ~schedule ~seed) in
      let check () =
        match !result with
        | Some e ->
            let lo, hi = e.Monte_carlo.ci95 in
            Float.abs (e.Monte_carlo.analytic -. e.Monte_carlo.mean_work)
            <= 5.0 *. (hi -. lo) /. 2.0
        | None -> false
      in
      let value () =
        match !result with Some e -> e.Monte_carlo.mean_work | None -> 0.0
      in
      let trace l =
        let r, obs = Ledger.spanned () in
        let _, us =
          Ledger.timed_us (fun () -> Monte_carlo.estimate ~obs ~trials lf ~c ~schedule ~seed)
        in
        Ledger.add l "traced_us" us;
        Ledger.add_spans l r;
        (* The ledger's prediction of this op from its layers, set against
           the untraced op time [E2e] adds as "untraced_us". *)
        let sampler, create_us = Ledger.reclaim_create l lf in
        let draws, draw_ns = Ledger.draw_cost l sampler (Prng.create ~seed) in
        let episode_ns = Ledger.episode_cost l schedule ~c draws in
        let _, ew_us = Ledger.timed_us (fun () -> Schedule.expected_work ~c lf schedule) in
        Ledger.add l "expected_work_us" ew_us;
        Ledger.add l "expected_works" 1.0;
        Ledger.add l "mc_predicted_us"
          (create_us +. (float_of_int trials *. (draw_ns +. episode_ns) /. 1e3) +. ew_us)
      in
      { run; check; value; trace }
  in
  { name = "simulate"; nominal_ops = 3_000; prepare }

(* --- farm and farm-adaptive ------------------------------------------------ *)

let fleet_families g =
  [
    (Uniform (jitter g 100.0), jitter g 45.0);
    (Geo_dec (exp (jitter g 0.03)), jitter g 60.0);
    (Geo_inc (jitter g 40.0), jitter g 30.0);
    (Weibull (jitter g 1.5, jitter g 80.0), jitter g 50.0);
  ]

let farm_c = 1.0

(* [conditional lf ~c ~elapsed] is the life function the §6 progressive
   policy plans against after surviving to [elapsed], built as
   [Guideline.next_period_online] builds it, or [None] where that
   function returns without planning. *)
let conditional lf ~c ~elapsed =
  let p_elapsed = Life_function.eval lf elapsed in
  let support =
    match Life_function.support lf with
    | Life_function.Bounded l when l -. elapsed <= c -> None
    | Life_function.Bounded l -> Some (Life_function.Bounded (l -. elapsed))
    | Life_function.Unbounded -> Some Life_function.Unbounded
  in
  match support with
  | Some support when p_elapsed > 0.0 ->
      Some
        (Life_function.make
           ~name:(Life_function.name lf ^ " | survived")
           ~support
           ~dp:(fun s -> Life_function.deriv lf (elapsed +. s) /. p_elapsed)
           ~shape:(Life_function.shape lf) ~validate:false
           (fun s -> Life_function.eval lf (elapsed +. s) /. p_elapsed))
  | _ -> None

(* The policy's calls during one traced farm run. *)
type policy_log = {
  policy_us : Kahan.t;
  mutable episodes : (Life_function.t * float) list;
  mutable periods : (Life_function.t * float) list;  (** (p, elapsed) *)
}

(* Wraps the real policy: times [fresh_episode] and the closure it returns,
   and logs their arguments. *)
let logged_policy (p : Farm.policy) log =
  {
    p with
    Farm.fresh_episode =
      (fun lf ~c ->
        let t0 = Obs_clock.now () in
        let next = p.Farm.fresh_episode lf ~c in
        Kahan.add log.policy_us (Ledger.us_since t0);
        log.episodes <- (lf, c) :: log.episodes;
        fun ~elapsed ->
          let t0 = Obs_clock.now () in
          let r = next ~elapsed in
          Kahan.add log.policy_us (Ledger.us_since t0);
          log.periods <- (lf, elapsed) :: log.periods;
          r);
  }

(* [n] elements of [xs] spread evenly over it, or all when it has at
   most [n]. *)
let spread_sample n xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  if len <= n then xs else List.init n (fun i -> a.(i * len / n))

let farm_workload ~name ~nominal_ops ~policy ~total_work ~adaptive =
  let prepare setup =
    let fams = fleet_families setup in
    let fleet =
      List.map
        (fun (fam, presence) ->
          { Farm.ws_life = make_family fam; ws_presence_mean = presence })
        fams
    in
    let config = { Farm.c = farm_c; total_work; workstations = fleet; policy; max_time = 1e7 } in
    let seen = Ledger.new_seen () in
    fun _i g ->
        let seed = Prng.next_int64 g in
        let result = ref None in
        let run () = result := Some (Farm.run config ~seed) in
        let check () =
          match !result with
          | Some r ->
              r.Farm.finished
              && Tol.equal (r.Farm.total_done +. r.Farm.pool_remaining) total_work
          | None -> false
        in
        let value () = match !result with Some r -> r.Farm.makespan | None -> 0.0 in
        let trace l =
          let log = { policy_us = Kahan.create (); episodes = []; periods = [] } in
          let r, obs = Ledger.spanned () in
          let report, run_us =
            Ledger.timed_us (fun () ->
                Farm.run ~obs { config with Farm.policy = logged_policy policy log } ~seed)
          in
          Ledger.add_spans l r;
          Ledger.add l "traced_us" run_us;
          Ledger.add l "farm_run_us" run_us;
          Ledger.add l "farm_policy_us" (Kahan.total log.policy_us);
          List.iter
            (fun (w : Farm.ws_stats) ->
              Ledger.add l "farm_episodes" (float_of_int w.Farm.episodes);
              Ledger.add l "farm_periods"
                (float_of_int (w.Farm.periods_completed + w.Farm.periods_killed)))
            report.Farm.per_workstation;
          (* Farm.run builds one sampler per workstation; time the same
             constructions, and the draws the event loop makes from them. *)
          let create_us = Kahan.create () in
          List.iter
            (fun (fam, _) ->
              let lf, make_us = Ledger.timed_us (fun () -> make_family fam) in
              if not adaptive then begin
                Ledger.add l "make_us" make_us;
                Ledger.add l "makes" 1.0;
                Ledger.eval_cost l lf
              end;
              let sampler, us = Ledger.reclaim_create l lf in
              Kahan.add create_us us;
              ignore (Ledger.draw_cost l sampler (Prng.create ~seed)))
            fams;
          Ledger.add l "farm_loop_us"
            (run_us -. Kahan.total log.policy_us -. Kahan.total create_us);
          if adaptive then begin
            (* Every period re-plans a fresh conditional p: count the calls
               that plan, and replay a sample of those plans traced. *)
            let planned =
              List.filter_map
                (fun (lf, elapsed) -> conditional lf ~c:farm_c ~elapsed)
                log.periods
            in
            Ledger.add l "plans" (float_of_int (List.length planned));
            List.iter
              (fun (lf, elapsed) ->
                let t0 = Obs_clock.now () in
                match conditional lf ~c:farm_c ~elapsed with
                | None -> ()
                | Some cond ->
                    Ledger.add l "make_us" (Ledger.us_since t0);
                    Ledger.add l "makes" 1.0;
                    Ledger.plan_spans l cond ~c:farm_c;
                    let calls = { Ledger.evals = 0; derivs = 0 } in
                    (match conditional (Ledger.counting calls lf) ~c:farm_c ~elapsed with
                    | Some counted ->
                        ignore (Guideline.plan counted ~c:farm_c : Guideline.result);
                        Ledger.add l "evals" (float_of_int calls.Ledger.evals);
                        Ledger.add l "derivs" (float_of_int calls.Ledger.derivs);
                        Ledger.add l "counted_plans" 1.0
                    | None -> ());
                    Ledger.eval_cost l cond)
              (spread_sample 4 log.periods)
          end
          else begin
            (* Each episode plans its workstation's (p, c) from scratch. *)
            List.iter (fun (lf, c) -> Ledger.note_plan l seen lf ~c) log.episodes;
            List.iter
              (fun (w : Farm.workstation_config) ->
                Ledger.plan_spans l w.Farm.ws_life ~c:farm_c;
                Ledger.count_plan_calls l w.Farm.ws_life ~c:farm_c)
              fleet
          end
        in
        { run; check; value; trace }
  in
  { name; nominal_ops; prepare }

(* total_work is sized so that a 20 s run completes over 1 000 ops, for
   a p99 with at least ten samples beyond it. *)
let farm =
  farm_workload ~name:"farm" ~nominal_ops:1_600 ~policy:Farm.guideline_policy
    ~total_work:300.0 ~adaptive:false

let farm_adaptive =
  farm_workload ~name:"farm-adaptive" ~nominal_ops:1_600
    ~policy:Farm.adaptive_policy ~total_work:80.0 ~adaptive:true

let all = [ plan_cold; simulate; farm; farm_adaptive ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
