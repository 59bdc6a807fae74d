let uniform_ws =
  { Farm.ws_life = Families.uniform ~lifespan:100.0; ws_presence_mean = 50.0 }

let base_config =
  {
    Farm.c = 1.0;
    total_work = 500.0;
    workstations = [ uniform_ws; uniform_ws ];
    policy = Farm.guideline_policy;
    max_time = 1e6;
  }

let test_farm_finishes () =
  let r = Farm.run base_config ~seed:1L in
  Alcotest.(check bool) "finished" true r.Farm.finished;
  Alcotest.(check (float 1e-6)) "all work done" 500.0 r.Farm.total_done;
  Alcotest.(check (float 1e-6)) "pool empty" 0.0 r.Farm.pool_remaining

let test_work_conservation () =
  (* done + remaining = total, lost work recycles. *)
  List.iter
    (fun seed ->
      let r = Farm.run base_config ~seed in
      Alcotest.(check (float 1e-6)) "conservation" base_config.Farm.total_work
        (r.Farm.total_done +. r.Farm.pool_remaining))
    [ 1L; 2L; 3L; 42L ]

let test_deterministic_in_seed () =
  let r1 = Farm.run base_config ~seed:9L in
  let r2 = Farm.run base_config ~seed:9L in
  Alcotest.(check (float 0.0)) "same makespan" r1.Farm.makespan r2.Farm.makespan;
  Alcotest.(check (float 0.0)) "same lost" r1.Farm.total_lost r2.Farm.total_lost

let test_different_seeds_differ () =
  let r1 = Farm.run base_config ~seed:1L in
  let r2 = Farm.run base_config ~seed:2L in
  Alcotest.(check bool) "makespans differ" true
    (r1.Farm.makespan <> r2.Farm.makespan)

let test_more_workstations_faster () =
  let two = Farm.run base_config ~seed:5L in
  let four =
    Farm.run
      { base_config with Farm.workstations = [ uniform_ws; uniform_ws; uniform_ws; uniform_ws ] }
      ~seed:5L
  in
  Alcotest.(check bool) "four stations no slower" true
    (four.Farm.makespan <= two.Farm.makespan +. 1e-9)

let test_max_time_cutoff () =
  let r = Farm.run { base_config with Farm.max_time = 10.0 } ~seed:1L in
  Alcotest.(check bool) "unfinished" false r.Farm.finished;
  Alcotest.(check (float 0.0)) "makespan = cutoff" 10.0 r.Farm.makespan;
  Alcotest.(check (float 1e-6)) "conservation under cutoff" 500.0
    (r.Farm.total_done +. r.Farm.pool_remaining)

let test_per_workstation_stats_consistent () =
  let r = Farm.run base_config ~seed:11L in
  let sum_done =
    List.fold_left (fun a w -> a +. w.Farm.work_done) 0.0 r.Farm.per_workstation
  in
  Alcotest.(check (float 1e-6)) "per-ws sums to total" r.Farm.total_done sum_done;
  List.iter
    (fun w ->
      Alcotest.(check bool) "episodes >= killed" true
        (w.Farm.episodes >= w.Farm.periods_killed))
    r.Farm.per_workstation

let test_policies_all_complete () =
  List.iter
    (fun policy ->
      let r =
        Farm.run
          { base_config with Farm.policy; total_work = 100.0 }
          ~seed:3L
      in
      Alcotest.(check bool)
        (policy.Farm.policy_name ^ " finishes")
        true r.Farm.finished)
    [
      Farm.guideline_policy;
      Farm.adaptive_policy;
      Farm.greedy_policy;
      Farm.fixed_chunk_policy ~chunk:10.0;
    ]

let test_heterogeneous_fleet () =
  let fleet =
    [
      { Farm.ws_life = Families.uniform ~lifespan:100.0; ws_presence_mean = 40.0 };
      {
        Farm.ws_life = Families.geometric_decreasing ~a:(exp 0.02);
        ws_presence_mean = 60.0;
      };
      {
        Farm.ws_life = Families.geometric_increasing ~lifespan:40.0;
        ws_presence_mean = 30.0;
      };
    ]
  in
  let r =
    Farm.run { base_config with Farm.workstations = fleet; total_work = 300.0 }
      ~seed:21L
  in
  Alcotest.(check bool) "finished" true r.Farm.finished;
  Alcotest.(check int) "three reports" 3 (List.length r.Farm.per_workstation)

let test_validation () =
  List.iter
    (fun cfg ->
      match Farm.run cfg ~seed:1L with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid config accepted")
    [
      { base_config with Farm.c = 0.0 };
      { base_config with Farm.total_work = 0.0 };
      { base_config with Farm.max_time = 0.0 };
      (* Below the float spacing at max_time a period could end at the
         instant it was dispatched. *)
      { base_config with Farm.c = (Float.succ 1e6 -. 1e6) /. 2.0 };
      { base_config with Farm.workstations = [] };
      {
        base_config with
        Farm.workstations = [ { uniform_ws with Farm.ws_presence_mean = 0.0 } ];
      };
    ]

let test_overhead_positive_when_work_done () =
  let r = Farm.run base_config ~seed:2L in
  Alcotest.(check bool) "nonzero overhead" true (r.Farm.total_overhead > 0.0)

let prop_conservation_random_configs =
  QCheck.Test.make ~name:"work conservation across random configs" ~count:25
    QCheck.(
      triple (float_range 50.0 400.0) (float_range 20.0 120.0) (int_range 1 5))
    (fun (work, presence, n_ws) ->
      let ws =
        { Farm.ws_life = Families.uniform ~lifespan:80.0; ws_presence_mean = presence }
      in
      let cfg =
        {
          Farm.c = 1.0;
          total_work = work;
          workstations = List.init n_ws (fun _ -> ws);
          policy = Farm.guideline_policy;
          max_time = 5e4;
        }
      in
      let r = Farm.run cfg ~seed:77L in
      Float.abs (r.Farm.total_done +. r.Farm.pool_remaining -. work) < 1e-6)

let prop_guideline_no_worse_than_bad_chunks =
  (* Across seeds, the guideline policy's makespan should generally beat a
     pathologically large fixed chunk. Allow rare noise reversals by
     comparing means over several seeds. *)
  QCheck.Test.make ~name:"guideline beats oversized fixed chunks on average"
    ~count:3 QCheck.unit (fun () ->
      let mean_makespan policy =
        let seeds = [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ] in
        let total =
          List.fold_left
            (fun acc seed ->
              let r =
                Farm.run { base_config with Farm.policy; total_work = 300.0 } ~seed
              in
              acc +. r.Farm.makespan)
            0.0 seeds
        in
        total /. float_of_int (List.length seeds)
      in
      mean_makespan Farm.guideline_policy
      <= mean_makespan (Farm.fixed_chunk_policy ~chunk:90.0))

(* --- known answers --------------------------------------------------------- *)

(* A Kaplan–Meier fit of 400 censored day/night absences: a trace-fitted
   p, which declares no shape. *)
let fitted_life =
  lazy
    (let model =
       Owner_model.Day_night
         { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 }
     in
     (Owner_model.collect ~censor_at:960.0 model (Prng.create ~seed:4L) ~n:400
     |> Survival.of_observations)
       .Survival.life)

(* A heterogeneous fleet, the trace fit included, whose owners leave often
   enough that dispatches overlap, so the two link models part ways. *)
let pinned_config policy =
  {
    Farm.c = 2.0;
    total_work = 200.0;
    workstations =
      List.map
        (fun (ws_life, ws_presence_mean) -> { Farm.ws_life; ws_presence_mean })
        [
          (Families.uniform ~lifespan:100.0, 15.0);
          (Families.geometric_decreasing ~a:(exp 0.03), 20.0);
          (Families.weibull ~shape:1.5 ~scale:80.0, 10.0);
          (Lazy.force fitted_life, 12.0);
        ];
    policy;
    max_time = 1e6;
  }

let library_policies =
  [
    Farm.guideline_policy;
    Farm.adaptive_policy;
    Farm.greedy_policy;
    Farm.fixed_chunk_policy ~chunk:10.0;
  ]

let links = [ ("unlimited", Farm.Unlimited); ("serialized", Farm.Serialized) ]

(* The report as bits: makespan, done, lost and overhead as int64, then
   (episodes, periods completed, periods killed) per workstation. *)
let report_bits (r : Farm.report) =
  ( Array.map Int64.bits_of_float
      [| r.Farm.makespan; r.Farm.total_done; r.Farm.total_lost;
         r.Farm.total_overhead |],
    List.map
      (fun w -> (w.Farm.episodes, w.Farm.periods_completed, w.Farm.periods_killed))
      r.Farm.per_workstation )

(* Events of one run with a consuming sink, counted by kind (sorted). *)
let traced_run cfg ~link ~seed =
  let counts = Hashtbl.create 16 in
  let sink =
    Obs.Sink.Custom
      (fun e ->
        let k = Obs.Event.kind e in
        Hashtbl.replace counts k
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
  in
  let r = Farm.run ~obs:(Obs.create ~sink ()) ~link cfg ~seed in
  (r, List.sort compare (List.of_seq (Hashtbl.to_seq counts)))

(* Known answers, bit for bit, for every library policy under both link
   models on seeds 1–3. They pin the whole event loop (owner transitions,
   policy calls, pool clipping, the link queue and the Kahan totals),
   which the tolerance checks above would let drift. *)
let test_run_known_answers () =
  List.iter
    (fun (name, link_name, seed, totals, per_ws) ->
      let policy =
        List.find (fun p -> p.Farm.policy_name = name) library_policies
      in
      Alcotest.(check (pair (array int64) (list (triple int int int))))
        (Printf.sprintf "%s %s seed %Ld" name link_name seed)
        (totals, per_ws)
        (report_bits
           (Farm.run ~link:(List.assoc link_name links) (pinned_config policy)
              ~seed)))
    [
      ( "guideline", "unlimited", 1L,
        [| 4637480873790475133L; 4641240890982006783L;
           4638031354226132941L; 4629700416936869888L |],
        [ (1, 7, 0); (3, 4, 2); (2, 4, 1); (5, 1, 4) ] );
      ( "guideline", "unlimited", 2L,
        [| 4638613086344201290L; 4641240890982006782L;
           4634645333970397287L; 4627448617123184640L |],
        [ (2, 5, 1); (3, 3, 2); (1, 2, 0); (3, 2, 2) ] );
      ( "guideline", "unlimited", 3L,
        [| 4639917015668382028L; 4641240890982006782L;
           4636836464213905575L; 4629137466983448576L |],
        [ (3, 2, 2); (1, 6, 0); (3, 7, 0); (5, 0, 4) ] );
      ( "guideline", "serialized", 1L,
        [| 4637923111738435074L; 4641240890982006782L;
           4638383197947053964L; 4629700416936869888L |],
        [ (1, 6, 1); (3, 5, 2); (2, 4, 1); (5, 1, 4) ] );
      ( "guideline", "serialized", 2L,
        [| 4638613086344201290L; 4641240890982006782L;
           4634645333970397287L; 4627448617123184640L |],
        [ (2, 5, 1); (3, 3, 2); (1, 2, 0); (3, 2, 2) ] );
      ( "guideline", "serialized", 3L,
        [| 4639917015668382028L; 4641240890982006782L;
           4637716949835821119L; 4629137466983448576L |],
        [ (3, 2, 2); (1, 6, 0); (3, 7, 1); (5, 0, 4) ] );
      ( "adaptive-conditional", "unlimited", 1L,
        [| 4637480873790475133L; 4641240890982006782L;
           4638031354226132941L; 4629700416936869888L |],
        [ (1, 7, 0); (3, 4, 2); (2, 4, 1); (5, 1, 4) ] );
      ( "adaptive-conditional", "unlimited", 2L,
        [| 4638016378603313840L; 4641240890982006783L;
           4634645333970374344L; 4629137466983448576L |],
        [ (2, 5, 1); (3, 4, 2); (1, 3, 0); (3, 3, 2) ] );
      ( "adaptive-conditional", "unlimited", 3L,
        [| 4639917015668450248L; 4641240890982006782L;
           4636836464214178455L; 4629137466983448576L |],
        [ (3, 2, 2); (1, 6, 0); (3, 7, 0); (5, 0, 4) ] );
      ( "adaptive-conditional", "serialized", 1L,
        [| 4637483713160307520L; 4641240890982006783L;
           4638031354226132941L; 4629700416936869888L |],
        [ (1, 7, 0); (3, 4, 2); (2, 4, 1); (5, 1, 4) ] );
      ( "adaptive-conditional", "serialized", 2L,
        [| 4638793145792554224L; 4641240890982006783L;
           4635366893272202742L; 4629137466983448576L |],
        [ (2, 6, 1); (3, 3, 3); (1, 3, 0); (3, 3, 2) ] );
      ( "adaptive-conditional", "serialized", 3L,
        [| 4639933355176426061L; 4641240890982006782L;
           4637774670044243889L; 4629137466983448576L |],
        [ (3, 2, 2); (1, 6, 0); (3, 7, 1); (5, 0, 4) ] );
      ( "greedy", "unlimited", 1L,
        [| 4643812607647365526L; 4641240890982006784L;
           4650010079806584630L; 4611686018427387904L |],
        [ (3, 0, 0); (6, 0, 2); (3, 0, 1); (5, 1, 4) ] );
      ( "greedy", "unlimited", 2L,
        [| 4647280947360209215L; 4641240890982006784L;
           4658248245387168471L; 4621819117588971520L |],
        [ (7, 2, 1); (10, 1, 5); (4, 1, 0); (19, 1, 17) ] );
      ( "greedy", "unlimited", 3L,
        [| 4643643202361520368L; 4641240890982006784L;
           4649374779170454811L; 4622945017495814144L |],
        [ (5, 2, 4); (3, 0, 1); (4, 2, 3); (7, 2, 6) ] );
      ( "greedy", "serialized", 1L,
        [| 4643812607647365526L; 4641240890982006784L;
           4650010079806584630L; 4611686018427387904L |],
        [ (3, 0, 0); (6, 0, 2); (3, 0, 1); (5, 1, 4) ] );
      ( "greedy", "serialized", 2L,
        [| 4647280947360209215L; 4641240890982006784L;
           4658248245387168471L; 4621819117588971520L |],
        [ (7, 2, 1); (10, 1, 5); (4, 1, 0); (19, 1, 17) ] );
      ( "greedy", "serialized", 3L,
        [| 4643643202361520368L; 4641240890982006784L;
           4649374779170454811L; 4622945017495814144L |],
        [ (5, 2, 4); (3, 0, 1); (4, 2, 3); (7, 2, 6) ] );
      ( "fixed-chunk(10)", "unlimited", 1L,
        [| 4637101717212351558L; 4641240890982006784L;
           4633078116657397760L; 4632233691727265792L |],
        [ (1, 9, 0); (3, 4, 2); (2, 8, 1); (5, 4, 4) ] );
      ( "fixed-chunk(10)", "unlimited", 2L,
        [| 4638086747347458800L; 4641240890982006784L;
           4630826316843712512L; 4632233691727265792L |],
        [ (2, 9, 1); (3, 5, 2); (1, 5, 0); (3, 6, 2) ] );
      ( "fixed-chunk(10)", "unlimited", 3L,
        [| 4637614492134619292L; 4641240890982006784L;
           4629700416936869888L; 4632233691727265792L |],
        [ (3, 5, 2); (1, 8, 0); (1, 10, 0); (3, 2, 2) ] );
      ( "fixed-chunk(10)", "serialized", 1L,
        [| 4637203121556600505L; 4641240890982006784L;
           4633078116657397760L; 4632233691727265792L |],
        [ (1, 9, 0); (3, 4, 2); (2, 8, 1); (5, 4, 4) ] );
      ( "fixed-chunk(10)", "serialized", 2L,
        [| 4638086747347458800L; 4641240890982006784L;
           4630826316843712512L; 4632233691727265792L |],
        [ (2, 9, 1); (3, 5, 2); (1, 5, 0); (3, 6, 2) ] );
      ( "fixed-chunk(10)", "serialized", 3L,
        [| 4637813098419027826L; 4641240890982006784L;
           4629700416936869888L; 4632233691727265792L |],
        [ (3, 5, 2); (1, 7, 0); (2, 10, 0); (3, 3, 2) ] );
    ]

(* The same runs at seed 1 with a consuming sink: the count of each event
   kind is pinned, and the report keeps the bits of the untraced run. *)
let test_event_known_answers () =
  let kinds =
    [
      "episode_finished"; "episode_started"; "owner_returned";
      "period_completed"; "period_dispatched"; "period_killed";
      "pool_drained"; "run_finished"; "run_started";
    ]
  in
  List.iter
    (fun (name, link_name, counts) ->
      let policy =
        List.find (fun p -> p.Farm.policy_name = name) library_policies
      in
      let link = List.assoc link_name links in
      let cfg = pinned_config policy in
      let r, observed = traced_run cfg ~link ~seed:1L in
      let label = name ^ " " ^ link_name in
      Alcotest.(check (list (pair string int))) label
        (List.combine kinds counts) observed;
      Alcotest.(check (pair (array int64) (list (triple int int int))))
        (label ^ " report") (report_bits (Farm.run ~link cfg ~seed:1L))
        (report_bits r))
    [
      ("guideline", "unlimited", [ 8; 11; 8; 16; 23; 7; 1; 1; 1 ]);
      ("guideline", "serialized", [ 8; 11; 8; 16; 24; 8; 1; 1; 1 ]);
      ("adaptive-conditional", "unlimited", [ 8; 11; 8; 16; 23; 7; 1; 1; 1 ]);
      ("adaptive-conditional", "serialized", [ 8; 11; 8; 16; 23; 7; 1; 1; 1 ]);
      ("greedy", "unlimited", [ 15; 17; 15; 1; 8; 7; 1; 1; 1 ]);
      ("greedy", "serialized", [ 15; 17; 15; 1; 8; 7; 1; 1; 1 ]);
      ("fixed-chunk(10)", "unlimited", [ 7; 11; 7; 25; 32; 7; 1; 1; 1 ]);
      ("fixed-chunk(10)", "serialized", [ 7; 11; 7; 25; 32; 7; 1; 1; 1 ]);
    ]

(* --- the policy call contract ---------------------------------------------- *)

(* One episode as the policy saw it: whether the pool had work when the
   episode began, and each call of the closure (elapsed, answer), newest
   first. *)
type episode_log = {
  pool_had_work : bool;
  mutable calls : (float * float option) list;
}

type run_log = {
  plans : int array;  (** [fresh_episode] calls per workstation. *)
  episodes : episode_log list array;  (** Per workstation, newest first. *)
}

(* Runs [cfg] with its policy wrapped the way the e2e harness's
   logged_policy wraps it. A consuming sink replays the pool from the
   dispatch and kill events, with the same float operations the farm
   makes, so each episode knows whether its pool had work (more than the
   farm's 1e-12). Workstations are told apart by their life function. *)
let logged_run (cfg : Farm.config) ~link ~seed =
  let lifes =
    Array.of_list (List.map (fun w -> w.Farm.ws_life) cfg.Farm.workstations)
  in
  let rec ws_of lf i = if lifes.(i) == lf then i else ws_of lf (i + 1) in
  let n = Array.length lifes in
  let log = { plans = Array.make n 0; episodes = Array.make n [] } in
  let pool = ref cfg.Farm.total_work in
  let sink =
    Obs.Sink.Custom
      (function
      | Obs.Event.Episode_started { ws; _ } ->
          log.episodes.(ws) <-
            { pool_had_work = !pool > 1e-12; calls = [] } :: log.episodes.(ws)
      | Obs.Event.Period_dispatched { assigned; _ } -> pool := !pool -. assigned
      | Obs.Event.Period_killed { lost; _ } -> pool := !pool +. lost
      | _ -> ())
  in
  let p = cfg.Farm.policy in
  let policy =
    {
      p with
      Farm.fresh_episode =
        (fun lf ~c ->
          let ws = ws_of lf 0 in
          log.plans.(ws) <- log.plans.(ws) + 1;
          let next = p.Farm.fresh_episode lf ~c in
          fun ~elapsed ->
            let r = next ~elapsed in
            (match log.episodes.(ws) with
            | ep :: _ -> ep.calls <- (elapsed, r) :: ep.calls
            | [] -> Alcotest.fail "closure called before any episode");
            r);
    }
  in
  let report =
    Farm.run ~obs:(Obs.create ~sink ()) ~link { cfg with Farm.policy } ~seed
  in
  (report, log)

(* [fresh_episode] runs once for each workstation with an episode and
   never for the others; within an episode the first call sees elapsed =
   0. exactly and every later one > 0.; an episode that starts with an
   empty pool makes no call. *)
let contract_holds (report : Farm.report) log =
  List.for_all
    (fun (w : Farm.ws_stats) ->
      let i = w.Farm.ws_id in
      log.plans.(i) = Bool.to_int (w.Farm.episodes > 0)
      && List.length log.episodes.(i) = w.Farm.episodes
      && List.for_all
           (fun ep ->
             match List.rev ep.calls with
             | [] -> not ep.pool_had_work
             | (first, _) :: later ->
                 ep.pool_had_work && Float.equal first 0.0
                 && List.for_all (fun (e, _) -> e > 0.0) later)
           log.episodes.(i))
    report.Farm.per_workstation

(* Every episode's answers are the schedule from its first period on. *)
let replays_from_start periods_of log =
  let episode_ok periods ep =
    List.for_all Fun.id
      (List.mapi
         (fun k (_, r) ->
           Option.equal Float.equal r
             (if k < Array.length periods then Some periods.(k) else None))
         (List.rev ep.calls))
  in
  List.for_all Fun.id
    (List.mapi
       (fun i eps -> List.for_all (episode_ok (periods_of i)) eps)
       (Array.to_list log.episodes))

(* A fleet of 1–4 workstations, c and total work (the policy is set per
   run), and a seed. One owner in five stays ~1e5 before leaving, so some
   workstations never have an episode. *)
let farm_case =
  let ws =
    QCheck.Gen.(
      map2
        (fun ws_life ws_presence_mean -> { Farm.ws_life; ws_presence_mean })
        (oneof
           [
             map (fun l -> Families.uniform ~lifespan:l) (float_range 30.0 150.0);
             map
               (fun r -> Families.geometric_decreasing ~a:(exp r))
               (float_range 0.01 0.08);
             map
               (fun l -> Families.geometric_increasing ~lifespan:l)
               (float_range 20.0 60.0);
             map2
               (fun shape scale -> Families.weibull ~shape ~scale)
               (float_range 0.8 2.5) (float_range 30.0 120.0);
           ])
        (frequency [ (4, float_range 5.0 60.0); (1, return 1e5) ]))
  in
  QCheck.make
    ~print:(fun ((cfg : Farm.config), seed) ->
      Printf.sprintf "c=%g work=%g seed=%Ld [%s]" cfg.Farm.c cfg.Farm.total_work
        seed
        (String.concat "; "
           (List.map
              (fun w ->
                Printf.sprintf "%s, presence %g"
                  (Life_function.name w.Farm.ws_life) w.Farm.ws_presence_mean)
              cfg.Farm.workstations)))
    QCheck.Gen.(
      pair
        (map3
           (fun workstations c total_work ->
             {
               Farm.c;
               total_work;
               workstations;
               policy = Farm.guideline_policy;
               max_time = 1e6;
             })
           (list_size (int_range 1 4) ws)
           (float_range 0.5 3.0) (float_range 20.0 120.0))
        (map Int64.of_int (int_range 1 1_000_000)))

let prop_policy_call_contract =
  QCheck.Test.make ~name:"one plan per workstation, elapsed = 0 per episode"
    ~count:15 farm_case (fun (cfg, seed) ->
      List.for_all
        (fun policy ->
          List.for_all
            (fun (_, link) ->
              let report, log = logged_run { cfg with Farm.policy } ~link ~seed in
              contract_holds report log)
            links)
        library_policies)

(* The guideline policy (farm_case's) plans each workstation once per run
   ([contract_holds]) and replays that schedule from period 0 in every
   episode. *)
let prop_static_policy_replays =
  QCheck.Test.make ~name:"static policy plans once and replays per episode"
    ~count:15 farm_case (fun (cfg, seed) ->
      List.for_all
        (fun (_, link) ->
          let report, log = logged_run cfg ~link ~seed in
          let fleet = Array.of_list cfg.Farm.workstations in
          let periods_of i =
            Schedule.periods
              (Guideline.plan fleet.(i).Farm.ws_life ~c:cfg.Farm.c)
                .Guideline.schedule
          in
          contract_holds report log && replays_from_start periods_of log)
        links)

(* A spanned run records one farm.plan_workstation span per workstation
   with an episode, carrying its index. The fifth owner stays ~1e5, so
   its workstation has no episode and no span. *)
let test_plan_workstation_spans () =
  List.iter
    (fun seed ->
      let cfg = pinned_config Farm.guideline_policy in
      let late = { uniform_ws with Farm.ws_presence_mean = 1e5 } in
      let cfg = { cfg with Farm.workstations = cfg.Farm.workstations @ [ late ] } in
      let r = Obs.Span.create () in
      let report = Farm.run ~obs:(Obs.create ~spans:r ()) cfg ~seed in
      let planned =
        List.filter_map
          (fun (s : Obs.Span.span) ->
            match (s.Obs.Span.name, s.Obs.Span.attrs) with
            | "farm.plan_workstation", [ ("ws", Jsonx.Int ws) ] -> Some ws
            | "farm.plan_workstation", _ -> Some (-1)
            | _ -> None)
          (Obs.Span.spans r)
      in
      let with_episodes =
        List.filter_map
          (fun w -> if w.Farm.episodes > 0 then Some w.Farm.ws_id else None)
          report.Farm.per_workstation
      in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %Ld" seed)
        with_episodes
        (List.sort compare planned))
    [ 1L; 2L; 3L ]

let () =
  Alcotest.run "farm"
    [
      ( "farm",
        [
          Alcotest.test_case "finishes" `Quick test_farm_finishes;
          Alcotest.test_case "work conservation" `Quick test_work_conservation;
          Alcotest.test_case "deterministic" `Quick test_deterministic_in_seed;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "more stations faster" `Quick
            test_more_workstations_faster;
          Alcotest.test_case "max_time cutoff" `Quick test_max_time_cutoff;
          Alcotest.test_case "per-ws stats" `Quick
            test_per_workstation_stats_consistent;
          Alcotest.test_case "all policies complete" `Quick
            test_policies_all_complete;
          Alcotest.test_case "heterogeneous fleet" `Quick
            test_heterogeneous_fleet;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "overhead accounted" `Quick
            test_overhead_positive_when_work_done;
          QCheck_alcotest.to_alcotest prop_conservation_random_configs;
          QCheck_alcotest.to_alcotest prop_guideline_no_worse_than_bad_chunks;
          (* One suite: Alcotest cuts each printed case name to fit the
             longest suite name, so a longer one would shorten the names
             above. *)
          Alcotest.test_case "known-answer run reports" `Quick
            test_run_known_answers;
          Alcotest.test_case "known-answer event counts" `Quick
            test_event_known_answers;
          QCheck_alcotest.to_alcotest prop_policy_call_contract;
          QCheck_alcotest.to_alcotest prop_static_policy_replays;
          Alcotest.test_case "plan_workstation spans" `Quick
            test_plan_workstation_spans;
        ] );
    ]
