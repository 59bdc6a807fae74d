let feq ?(eps = 1e-6) a b = Alcotest.(check (float eps)) "value" a b

(* --- the central reproduction claims ---------------------------------- *)

let test_guideline_matches_exact_uniform () =
  (* For uniform risk the guideline recurrence IS the optimal recurrence
     (§4.1), so the guideline must recover the exact optimal E. *)
  let c = 1.0 and l = 100.0 in
  let lf = Families.uniform ~lifespan:l in
  let g = Guideline.plan lf ~c in
  let exact = Exact.uniform ~c ~lifespan:l in
  feq ~eps:1e-6 exact.Exact.expected_work g.Guideline.expected_work;
  feq ~eps:1e-4 exact.Exact.t0 g.Guideline.t0

let test_guideline_matches_exact_geo_dec () =
  let a = exp 0.05 and c = 1.0 in
  let lf = Families.geometric_decreasing ~a in
  let g = Guideline.plan lf ~c in
  let exact = Exact.geometric_decreasing ~c ~a in
  feq ~eps:1e-6 exact.Exact.expected_work g.Guideline.expected_work;
  feq ~eps:1e-4 exact.Exact.t0 g.Guideline.t0

let test_guideline_geo_inc_at_least_exact_structure () =
  (* In continuous time the guideline recurrence (4.7) can slightly beat
     [3]'s ±1-perturbation recurrence; it must never fall below it by more
     than numerical noise. *)
  let c = 1.0 and l = 30.0 in
  let lf = Families.geometric_increasing ~lifespan:l in
  let g = Guideline.plan lf ~c in
  let exact = Exact.geometric_increasing ~c ~lifespan:l in
  Alcotest.(check bool) "guideline >= [3] structure" true
    (g.Guideline.expected_work >= exact.Exact.expected_work -. 1e-6)

let test_guideline_t0_inside_own_bracket () =
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c:1.0 in
      let lo, hi = g.Guideline.bracket in
      Alcotest.(check bool) (name ^ " t0 in bracket") true
        (g.Guideline.t0 >= lo -. 1e-9 && g.Guideline.t0 <= hi +. 1e-9))
    (Families.all_paper_scenarios ~c:1.0)

let test_guideline_beats_naive_singleperiod () =
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c:1.0 in
      let naive = Baselines.single_period lf ~c:1.0 in
      Alcotest.(check bool)
        (name ^ " beats single period")
        true
        (g.Guideline.expected_work >= naive.Baselines.expected_work -. 1e-9))
    (Families.all_paper_scenarios ~c:1.0)

let test_plan_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  match Guideline.plan lf ~c:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 accepted"

(* Proposition 2.1's normal form: every period but the last exceeds c. *)
let productive ~c s =
  let n = Schedule.num_periods s in
  n > 0
  && List.for_all (fun i -> Schedule.period s i > c) (List.init (n - 1) Fun.id)

let test_schedule_is_productive () =
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c:1.0 in
      Alcotest.(check bool) (name ^ " productive") true
        (productive ~c:1.0 g.Guideline.schedule))
    (Families.all_paper_scenarios ~c:1.0)

(* --- online / conditional scheduling (§6) ------------------------------ *)

let test_online_first_step_matches_plan () =
  (* At elapsed = 0 the conditional function is p itself, so the online
     step equals the plan's t0. *)
  let lf = Families.uniform ~lifespan:100.0 in
  let g = Guideline.plan lf ~c:1.0 in
  match Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 with
  | Some t -> feq ~eps:1e-3 g.Guideline.t0 t
  | None -> Alcotest.fail "expected a period at t = 0"

let test_online_memoryless_constant () =
  (* Exponential: the conditional problem is identical at every elapsed
     time, so the online period never changes. *)
  let lf = Families.geometric_decreasing ~a:(exp 0.1) in
  let p0 = Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 in
  let p7 = Guideline.next_period_online lf ~c:1.0 ~elapsed:7.0 in
  match (p0, p7) with
  | Some a, Some b -> feq ~eps:1e-3 a b
  | _ -> Alcotest.fail "expected periods at both times"

let test_online_shrinks_near_deadline () =
  let lf = Families.uniform ~lifespan:100.0 in
  let early = Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 in
  let late = Guideline.next_period_online lf ~c:1.0 ~elapsed:90.0 in
  match (early, late) with
  | Some e, Some l -> Alcotest.(check bool) "late period shorter" true (l < e)
  | _ -> Alcotest.fail "expected periods at both times"

let test_online_none_when_exhausted () =
  List.iter
    (fun (lf, c, elapsed) ->
      Alcotest.(check bool) "no period at the end of life" true
        (Guideline.next_period_online lf ~c ~elapsed = None))
    [
      (Families.uniform ~lifespan:100.0, 1.0, 99.5);
      (* Unbounded: the conditional survival drops below 1e-12 within
         4 time units, less than c. *)
      (Families.weibull ~shape:2.5 ~scale:10.0, 5.0, 100.0);
    ]

let test_online_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  match Guideline.next_period_online lf ~c:1.0 ~elapsed:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative elapsed accepted"

(* --- numerical inverse vs closed form ----------------------------------- *)

(* [lf] rebuilt without its inverse, so {!Life_function.make} supplies
   the numerical one. *)
let without_inverse lf =
  Life_function.make ~validate:false ~name:(Life_function.name lf)
    ~support:(Life_function.support lf) ~dp:(Life_function.deriv lf)
    ~shape:(Life_function.shape lf) (Life_function.eval lf)

let test_numerical_inverse_plans_match_closed_form () =
  (* Period counts and stop reasons are not compared: at bounded-support
     optima t0 sits on the kink where the last period ends at L, and the
     two inverses may land on either side of it, adding or dropping one
     trailing period of length <= c that carries no work. *)
  let g = Prng.create ~seed:15L in
  let range lo hi = Prng.float_range g ~lo ~hi in
  for i = 0 to 35 do
    let lf =
      match i mod 6 with
      | 0 -> Families.uniform ~lifespan:(range 40.0 200.0)
      | 1 ->
          Families.polynomial ~d:(2 + Prng.int g ~bound:2)
            ~lifespan:(range 40.0 200.0)
      | 2 -> Families.geometric_decreasing ~a:(exp (range 0.01 0.08))
      | 3 -> Families.exponential ~rate:(range 0.01 0.08)
      | 4 -> Families.geometric_increasing ~lifespan:(range 20.0 60.0)
      | _ -> Families.weibull ~shape:(range 0.6 2.5) ~scale:(range 40.0 200.0)
    in
    let c = range 0.5 3.0 in
    let closed = Guideline.plan lf ~c in
    let numerical = Guideline.plan (without_inverse lf) ~c in
    let name = Life_function.name lf in
    if
      not
        (Tol.equal ~eps:1e-8 closed.Guideline.expected_work
           numerical.Guideline.expected_work)
    then
      Alcotest.failf "%s, c=%g: E %.12g (closed form) vs %.12g (numerical)"
        name c closed.Guideline.expected_work
        numerical.Guideline.expected_work;
    List.iter
      (fun (kind, plan) ->
        Array.iter
          (fun r ->
            if Float.abs r > 1e-12 then
              Alcotest.failf "%s, c=%g: residual %g with the %s inverse" name
                c r kind)
          (Recurrence.residuals lf ~c plan.Guideline.schedule))
      [ ("closed-form", closed); ("numerical", numerical) ]
  done

(* --- the t0 search by shape -------------------------------------------- *)

(* A certified-shape scenario drawn from [seed]: one of the six families
   (Weibull with shape 0.3 to 3: convex up to 1, log-concave above),
   time-scaled one time in three, with c between 1e-3 and 0.4 of the
   horizon. *)
let certified_scenario seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let range lo hi = Prng.float_range g ~lo ~hi in
  let lf =
    match Prng.int g ~bound:7 with
    | 0 -> Families.uniform ~lifespan:(range 10.0 300.0)
    | 1 ->
        Families.polynomial ~d:(2 + Prng.int g ~bound:4)
          ~lifespan:(range 10.0 300.0)
    | 2 -> Families.geometric_decreasing ~a:(exp (range 0.005 0.2))
    | 3 -> Families.exponential ~rate:(range 0.005 0.2)
    | 4 -> Families.geometric_increasing ~lifespan:(range 5.0 80.0)
    | 5 -> Families.weibull ~shape:(range 0.3 3.0) ~scale:(range 10.0 300.0)
    | _ ->
        (* A §6 conditional, as the adaptive policy plans against. *)
        let scale = range 10.0 300.0 in
        Option.get
          (Life_function.condition
             (Families.weibull ~shape:(range 1.0 3.0) ~scale)
             ~elapsed:(scale *. range 0.0 2.0))
  in
  let lf =
    if Prng.int g ~bound:3 = 0 then Families.scale_time ~factor:(range 0.1 10.0) lf
    else lf
  in
  let c = Life_function.horizon lf *. exp (range (log 1e-3) (log 0.4)) in
  (lf, c)

let arb_certified_scenario =
  QCheck.make
    ~print:(fun seed ->
      let lf, c = certified_scenario seed in
      Printf.sprintf "%s, c=%g" (Life_function.name lf) c)
    QCheck.Gen.nat

let prop_certified_search_finds_unimodal_max =
  (* The search on G's sign finds the maximum only where E(t0) is
     unimodal over the bracket, one + → − crossing: sampled on a
     200-point grid, no interior point may sit below the best points on
     both of its sides (beyond round-off), and the plan must reach the
     grid's maximum. *)
  QCheck.Test.make
    ~name:"certified shapes: E(t0) unimodal on the bracket, plan reaches max"
    ~count:300 arb_certified_scenario
    (fun seed ->
      let lf, c = certified_scenario seed in
      let lo, hi = Bounds.bracket lf ~c in
      let m = 200 in
      let e =
        Array.init m (fun i ->
            let t0 = lo +. (float_of_int i *. (hi -. lo) /. float_of_int (m - 1)) in
            Recurrence.expected_work_at lf ~c ~t0)
      in
      let e_max = Array.fold_left Float.max neg_infinity e in
      let left = Array.copy e and right = Array.copy e in
      for i = 1 to m - 1 do
        left.(i) <- Float.max left.(i - 1) e.(i)
      done;
      for i = m - 2 downto 0 do
        right.(i) <- Float.max right.(i + 1) e.(i)
      done;
      let slack = 1e-12 *. Float.abs e_max in
      match
        List.find_opt
          (fun i -> e.(i) < Float.min left.(i - 1) right.(i + 1) -. slack)
          (List.init (m - 2) succ)
      with
      | Some i -> QCheck.Test.fail_reportf "dip at grid point %d of %d" i m
      | None ->
          let planned = (Guideline.plan lf ~c).Guideline.expected_work in
          planned >= e_max -. (1e-9 *. Float.abs e_max))

let prop_certified_t0_is_first_order_optimal =
  (* The first-order certificate: G > 0 just below the plan's t0 and
     G <= 0 just above it, unless t0 is a bracket end. *)
  QCheck.Test.make ~name:"certified shapes: G changes sign + to - at the plan's t0"
    ~count:300 arb_certified_scenario
    (fun seed ->
      let lf, c = certified_scenario seed in
      let r = Guideline.plan lf ~c in
      let t0 = r.Guideline.t0 and lo, hi = r.Guideline.bracket in
      let g t0 = (Recurrence.score lf ~c ~t0).Recurrence.slope in
      Tol.exactly t0 lo || Tol.exactly t0 hi
      || (g (t0 *. (1.0 -. 1e-6)) > 0.0 && g (t0 *. (1.0 +. 1e-6)) <= 0.0))

let test_exact_zero_says_falls () =
  (* certified_scenario 312, a uniform p: one scored t0 sits where the
     period count changes on the exhausted side, and its G is exactly 0.
     Read as "E rises", that 0 sends the search to the wrong side, 3.2%
     short of the maximum. *)
  let lf, c = certified_scenario 312 in
  let lo, hi = Bounds.bracket lf ~c in
  let grid =
    Optimize.grid_max
      (fun t0 -> Recurrence.expected_work_at lf ~c ~t0)
      ~lo ~hi ~steps:200
  in
  let e = (Guideline.plan lf ~c).Guideline.expected_work in
  if e < grid.Optimize.fx *. (1.0 -. 1e-9) then
    Alcotest.failf "E %h, 200-cell grid %h" e grid.Optimize.fx

(* 50 seeded power laws: Convex by declaration, inadmissible by Cor 3.2,
   so E(t0) may have several maxima, and a cut that counts (a period cap
   or a tail cut) lies inside the bracket. Those with d near 1 to 1.3
   peak past a period cap, which the search must read as "E rises". *)
let test_power_laws_reach_the_grid () =
  let g = Prng.create ~seed:77L in
  for _ = 1 to 50 do
    let d = Prng.float_range g ~lo:0.5 ~hi:3.5
    and c = Prng.float_range g ~lo:0.2 ~hi:3.0 in
    let lf = Families.power_law ~d in
    let lo, hi = Bounds.bracket lf ~c in
    let grid =
      Optimize.grid_then_refine
        (fun t0 -> Recurrence.expected_work_at lf ~c ~t0)
        ~lo ~hi ~steps:128
    in
    let e = (Guideline.plan lf ~c).Guideline.expected_work in
    if e < grid.Optimize.fx *. (1.0 -. 1e-3) then
      Alcotest.failf "d=%g, c=%g: E %g, grid and refine %g" d c e
        grid.Optimize.fx
  done

(* Number of [plan.evaluate] spans one plan records. *)
let evaluations lf ~c =
  let spans = Obs.Span.create () in
  ignore (Guideline.plan ~obs:(Obs.create ~spans ()) lf ~c : Guideline.result);
  List.length
    (List.filter
       (fun s -> String.equal s.Obs.Span.name "plan.evaluate")
       (Obs.Span.spans spans))

(* The search reads only G's sign, so its cost does not hang on where
   the crossing falls: 20 draws within 3% of each of the e2e farm
   fleet's centres all score 34 halvings and the final pass. Brent's
   method on G's size took 14 to 37 on such draws, and the farm's
   throughput varied with the seed. *)
let test_evaluations_steady () =
  let g = Prng.create ~seed:5L in
  let jitter x = x *. Prng.float_range g ~lo:0.97 ~hi:1.03 in
  for _ = 1 to 20 do
    List.iter
      (fun lf ->
        let n = evaluations lf ~c:1.0 in
        if n <> 35 then
          Alcotest.failf "%s: %d evaluations, want 35" (Life_function.name lf) n)
      [
        Families.uniform ~lifespan:(jitter 100.0);
        Families.geometric_decreasing ~a:(exp (jitter 0.03));
        Families.geometric_increasing ~lifespan:(jitter 40.0);
        Families.weibull ~shape:(jitter 1.5) ~scale:(jitter 80.0);
      ]
  done

(* Uniform L = 100 at c = 99.9999: the bracket [99.99995, 100] is 5e-7
   of its position wide, so 1e-10 of its width lies below an ulp of its
   ends, and the halving must stop at adjacent floats. *)
let test_narrow_bracket_far_from_zero () =
  let r = Guideline.plan (Families.uniform ~lifespan:100.0) ~c:99.9999 in
  let lo, hi = r.Guideline.bracket in
  if not (lo <= r.Guideline.t0 && r.Guideline.t0 <= hi && r.Guideline.expected_work > 0.0)
  then
    Alcotest.failf "t0 %h in [%h, %h], E %h" r.Guideline.t0 lo hi
      r.Guideline.expected_work

(* Cor 5.3 admission: a concave or linear p whose period bound reaches
   the recurrence's cap is refused before bracketing, where it used to
   print t0 = 2 (L = 1e308), a one-period plan (1e200) or a plan cut at
   the cap (1e10). Just below the cap the plan stands. *)
let test_refuses_past_the_period_cap () =
  List.iter
    (fun (lf, c) ->
      match Guideline.plan lf ~c with
      | exception Invalid_argument _ -> ()
      | r ->
          Alcotest.failf "%s at c = %g: planned %d periods"
            (Life_function.name lf) c
            (Schedule.num_periods r.Guideline.schedule))
    [
      (Families.uniform ~lifespan:1e308, 1.0);
      (Families.uniform ~lifespan:1e200, 1.0);
      (Families.uniform ~lifespan:1e10, 1.0);
      (Families.uniform ~lifespan:100.0, 1e-300);
      (Families.geometric_increasing ~lifespan:1e308, 1.0);
      (Families.polynomial ~d:2 ~lifespan:1e308, 1.0);
    ];
  let r = Guideline.plan (Families.uniform ~lifespan:1e9) ~c:1.0 in
  if r.Guideline.stop = Recurrence.Period_cap then
    Alcotest.fail "L/c = 1e9 hit the period cap"

let test_evaluations_by_shape () =
  List.iter
    (fun lf ->
      let n = evaluations lf ~c:1.0 in
      if n > 36 then
        Alcotest.failf "%s: %d evaluations, want <= 36" (Life_function.name lf) n)
    [
      Families.uniform ~lifespan:100.0;
      Families.polynomial ~d:3 ~lifespan:80.0;
      Families.geometric_decreasing ~a:(exp 0.05);
      Families.exponential ~rate:0.03;
      Families.geometric_increasing ~lifespan:30.0;
      Families.weibull ~shape:0.8 ~scale:60.0;
      Families.weibull ~shape:1.5 ~scale:100.0;
      Families.scale_time ~factor:2.0 (Families.polynomial ~d:2 ~lifespan:50.0);
    ];
  (* A trace fit declares no shape: the 129-point grid runs. *)
  let fit =
    let model =
      Owner_model.Day_night
        { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 }
    in
    Owner_model.collect ~censor_at:960.0 model (Prng.create ~seed:4L) ~n:1000
    |> Survival.of_observations
  in
  let n = evaluations fit.Survival.life ~c:1.0 in
  if n <= 129 then Alcotest.failf "trace fit: %d evaluations, want > 129" n

(* --- properties -------------------------------------------------------- *)

let prop_guideline_within_2pct_of_optimizer =
  (* The headline reproduction claim: guideline-generated schedules land
     within a few percent of the independent numeric optimum. *)
  QCheck.Test.make ~name:"guideline E within 2% of brute-force optimum"
    ~count:8
    QCheck.(pair (float_range 0.5 2.0) (float_range 30.0 120.0))
    (fun (c, l) ->
      let lf = Families.uniform ~lifespan:l in
      let g = Guideline.plan lf ~c in
      let o = Optimizer.optimal_schedule lf ~c in
      g.Guideline.expected_work >= 0.98 *. o.Optimizer.expected_work)

let prop_guideline_t0_in_paper_bounds_uniform =
  QCheck.Test.make ~name:"guideline t0 within the §4.1 simplified bounds"
    ~count:25
    QCheck.(pair (float_range 0.5 2.0) (float_range 30.0 300.0))
    (fun (c, l) ->
      let lf = Families.uniform ~lifespan:l in
      let g = Guideline.plan lf ~c in
      g.Guideline.t0 >= Closed_forms.uniform_t0_lower ~c ~lifespan:l -. 1e-6
      && g.Guideline.t0
         <= Closed_forms.uniform_t0_upper ~c ~lifespan:l +. 1e-6)

(* --- known answers -------------------------------------------------------- *)

(* A Kaplan–Meier fit of 400 censored day/night absences. *)
let pinned_fit =
  lazy
    (let model =
       Owner_model.Day_night
         { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 }
     in
     (Owner_model.collect ~censor_at:960.0 model (Prng.create ~seed:4L) ~n:400
     |> Survival.of_observations)
       .Survival.life)

(* Known answers, bit for bit: t0 and E (as int64 bits) and the period
   count of [Guideline.plan], for one p of each family the e2e plan-cold
   workload draws, Weibull on both sides of shape 1, a power law, a
   scale_time p and a trace fit. They pin the whole planning path (the
   Thm 3.2/3.3 bracket, the t0 search, the recurrence's loop and eq. 2.1),
   which the tolerance checks above would let drift. *)
let test_plan_known_answers () =
  List.iter
    (fun (name, lf, c, t0, e, n) ->
      let r = Guideline.plan (Lazy.force lf) ~c in
      Alcotest.(check (pair int64 int64)) name (t0, e)
        ( Int64.bits_of_float r.Guideline.t0,
          Int64.bits_of_float r.Guideline.expected_work );
      Alcotest.(check int) (name ^ " periods") n
        (Schedule.num_periods r.Guideline.schedule))
    [
      ( "uniform", lazy (Families.uniform ~lifespan:100.0), 1.0,
        4623869863847972726L, 4630976353058977031L, 13 );
      ( "polynomial", lazy (Families.polynomial ~d:3 ~lifespan:80.0), 1.5,
        4628704563696724132L, 4632198701044988139L, 7 );
      ( "geo-dec", lazy (Families.geometric_decreasing ~a:(exp 0.05)), 1.0,
        4619202763654037498L, 4624253194463295448L, 77 );
      ( "exponential", lazy (Families.exponential ~rate:0.03), 2.0,
        4623087992376136453L, 4627189479698589661L, 67 );
      ( "geo-inc", lazy (Families.geometric_increasing ~lifespan:30.0), 1.0,
        4627379529856812558L, 4627742325779088411L, 3 );
      ( "weibull k=1.5", lazy (Families.weibull ~shape:1.5 ~scale:80.0), 1.0,
        4625274681761583436L, 4633771381458885402L, 76 );
      ( "weibull k=0.8", lazy (Families.weibull ~shape:0.8 ~scale:60.0), 1.0,
        4622085174421603726L, 4633252396196665710L, 199 );
      ( "power law", lazy (Families.power_law ~d:2.0), 1.0,
        4611949522752651790L, 4598403273824587318L, 1739 );
      ( "scale_time",
        lazy
          (Families.scale_time ~factor:2.5
             (Families.polynomial ~d:2 ~lifespan:50.0)),
        1.0, 4628036889681145004L, 4634810077150006485L, 13 );
      ( "trace fit", pinned_fit, 1.0, 4622383952414391441L,
        4636705326216102095L, 37 );
    ];
  (* §6: the first period of the plan against the conditional p. *)
  List.iter
    (fun (name, lf, elapsed, t) ->
      match Guideline.next_period_online (Lazy.force lf) ~c:1.0 ~elapsed with
      | Some t' ->
          Alcotest.(check int64) ("online " ^ name) t (Int64.bits_of_float t')
      | None -> Alcotest.failf "online %s: no period" name)
    [
      ("uniform", lazy (Families.uniform ~lifespan:100.0), 40.0,
       4622075003931651566L);
      ("weibull k=1.5", lazy (Families.weibull ~shape:1.5 ~scale:80.0), 10.0,
       4624369128189066972L);
      ("trace fit", pinned_fit, 20.0, 4624586954762885681L);
    ]

(* --- §6 progressive planning ------------------------------------------- *)

(* The ten families the progressive planner is checked on: every family,
   Weibull on both sides of shape 1, and a scale_time p. *)
let progressive_families =
  [
    ("uniform", Families.uniform ~lifespan:100.0);
    ("polynomial d=2", Families.polynomial ~d:2 ~lifespan:100.0);
    ("polynomial d=3", Families.polynomial ~d:3 ~lifespan:80.0);
    ("geo-dec", Families.geometric_decreasing ~a:1.05);
    ("exponential", Families.exponential ~rate:0.03);
    ("geo-inc", Families.geometric_increasing ~lifespan:40.0);
    ("weibull k=1.5", Families.weibull ~shape:1.5 ~scale:80.0);
    ("weibull k=0.8", Families.weibull ~shape:0.8 ~scale:60.0);
    ("weibull k=2.5", Families.weibull ~shape:2.5 ~scale:100.0);
    ( "scale_time",
      Families.scale_time ~factor:2.5 (Families.polynomial ~d:2 ~lifespan:50.0)
    );
  ]

(* The periods [next] plays over one uninterrupted episode: from elapsed
   0, each answer runs in full, until [None], [max] periods, or p below
   the recurrence's 1e-15 tail threshold, beyond which no period adds
   measurable work. *)
let episode ~max lf next =
  let rec go elapsed k acc =
    if k >= max || Life_function.eval lf elapsed < 1e-15 then List.rev acc
    else
      match next ~elapsed with
      | None -> List.rev acc
      | Some t -> go (elapsed +. t) (k + 1) (t :: acc)
  in
  go 0.0 0 []

(* Fails unless a progressive answer agrees with the full search at the
   same state: both [None], or within 1e-6 relative. *)
let agrees name ~c ~elapsed lf got =
  let show = function Some t -> Printf.sprintf "%h" t | None -> "None" in
  match (got, Guideline.next_period_online lf ~c ~elapsed) with
  | None, None -> ()
  | Some a, Some b when Float.abs (a -. b) <= 1e-6 *. b -> ()
  | a, b ->
      Alcotest.failf "%s, c=%g, elapsed %h: progressive %s, full search %s"
        name c elapsed (show a) (show b)

let test_progressive_bits () =
  (* At an episode start the answer is the plan of p itself, made once
     and replayed at the next start. *)
  List.iter
    (fun (name, lf) ->
      let next = Guideline.progressive lf ~c:1.0 in
      let reference = Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 in
      let first = next ~elapsed:0.0 in
      Option.iter (fun t -> ignore (next ~elapsed:t)) first;
      List.iter
        (fun (label, got) ->
          Alcotest.(check (option int64))
            (Printf.sprintf "%s %s" name label)
            (Option.map Int64.bits_of_float reference)
            (Option.map Int64.bits_of_float got))
        [ ("first start", first); ("next start", next ~elapsed:0.0) ])
    progressive_families;
  (* A trace fit declares no shape, so every call is the full search. *)
  let fit = Lazy.force pinned_fit in
  let next = Guideline.progressive fit ~c:1.0 in
  let calls = ref 0 in
  ignore
    (episode ~max:12 fit (fun ~elapsed ->
         let got = next ~elapsed in
         incr calls;
         Alcotest.(check (option int64))
           (Printf.sprintf "trace fit at %h" elapsed)
           (Option.map Int64.bits_of_float
              (Guideline.next_period_online fit ~c:1.0 ~elapsed))
           (Option.map Int64.bits_of_float got);
         got)
      : float list);
  Alcotest.(check bool) "trace fit episode has several calls" true (!calls > 2)

let test_progressive_episodes () =
  (* Each answer along an uninterrupted episode agrees with the full
     search at the same state. *)
  List.iter
    (fun (name, lf) ->
      List.iter
        (fun c ->
          let next = Guideline.progressive lf ~c in
          ignore
            (episode ~max:12 lf (fun ~elapsed ->
                 let got = next ~elapsed in
                 agrees name ~c ~elapsed lf got;
                 got)
              : float list))
        [ 0.5; 1.0; 2.0 ])
    progressive_families;
  (* Whole episodes at c = 1: the played schedule's E(S; p) is the full
     search walk's. Single answers may differ by ~1e-7 (guideline.mli),
     but the whole schedule sits at E's maximum, where such moves are
     second order. *)
  List.iter
    (fun (name, lf) ->
      let c = 1.0 in
      let e next =
        Schedule.expected_work ~c lf
          (Schedule.of_list (episode ~max:max_int lf next))
      in
      let played = e (Guideline.progressive lf ~c) in
      let full = e (fun ~elapsed -> Guideline.next_period_online lf ~c ~elapsed) in
      if not (Float.abs (played -. full) <= 1e-12 *. full) then
        Alcotest.failf "%s: E %h played, %h by full search" name played full)
    progressive_families

let test_progressive_off_path () =
  (* States an uninterrupted episode never reaches: a period clipped
     short of the previous answer, and one that ended a gap before the
     next call, as a link delay leaves it. *)
  List.iter
    (fun (name, lf) ->
      List.iter
        (fun c ->
          let next = Guideline.progressive lf ~c in
          match next ~elapsed:0.0 with
          | None -> ()
          | Some t0 ->
              let clipped = 0.5 *. t0 in
              let after_clip = next ~elapsed:clipped in
              agrees name ~c ~elapsed:clipped lf after_clip;
              Option.iter
                (fun t ->
                  let gapped = clipped +. t +. (0.25 *. t) in
                  agrees name ~c ~elapsed:gapped lf (next ~elapsed:gapped))
                after_clip;
              (* A gap after an unclipped first period. *)
              ignore (next ~elapsed:0.0);
              let gapped = t0 +. (3.0 *. c) in
              agrees name ~c ~elapsed:gapped lf (next ~elapsed:gapped))
        [ 0.5; 1.0; 2.0 ])
    progressive_families

(* The plan's E is the search's score of the winner, taken without a
   further pass. It must carry the bits of eq. 2.1 summed over the
   schedule the plan returns, on every search path. *)
let test_plan_e_is_its_schedules () =
  let check name lf ~c =
    let r = Guideline.plan lf ~c in
    let e = Schedule.expected_work ~c lf r.Guideline.schedule in
    if
      not
        (Int64.equal
           (Int64.bits_of_float r.Guideline.expected_work)
           (Int64.bits_of_float e))
    then
      Alcotest.failf "%s, c=%g: plan E %h, its schedule's E %h" name c
        r.Guideline.expected_work e
  in
  for seed = 0 to 199 do
    let lf, c = certified_scenario seed in
    check (Life_function.name lf) lf ~c
  done;
  (* Trace fits declare no shape: the grid-and-refine search. *)
  let fits =
    List.map
      (fun (name, seed, model) ->
        ( name,
          (Owner_model.collect ~censor_at:960.0 model (Prng.create ~seed)
             ~n:300
          |> Survival.of_observations)
            .Survival.life ))
      [
        ( "day/night fit", 4L,
          Owner_model.Day_night
            { short_mean = 15.0; long_mean = 480.0; long_fraction = 0.15 } );
        ( "coffee-break fit", 5L,
          Owner_model.Coffee_break { typical = 12.0; spread = 3.0 } );
        ( "weibull 0.8 fit", 6L,
          Owner_model.Weibull_absence { shape = 0.8; scale = 60.0 } );
        ( "weibull 2 fit", 7L,
          Owner_model.Weibull_absence { shape = 2.0; scale = 100.0 } );
      ]
  in
  List.iter
    (fun (name, lf) -> List.iter (fun c -> check name lf ~c) [ 0.5; 1.0; 3.0 ])
    fits;
  (* Time-scaled p, and §6 conditionals of a family and of a fit. *)
  List.iter
    (fun (name, lf) ->
      List.iter
        (fun factor ->
          check (name ^ " scaled") (Families.scale_time ~factor lf) ~c:1.0)
        [ 0.3; 2.5; 40.0 ];
      List.iter
        (fun frac ->
          match
            Life_function.condition lf
              ~elapsed:(frac *. Life_function.horizon lf)
          with
          | Some cond -> check (name ^ " conditioned") cond ~c:1.0
          | None -> Alcotest.failf "%s: nothing to condition on" name)
        [ 0.1; 0.3 ])
    (progressive_families @ fits)

let () =
  Alcotest.run "guideline"
    [
      ( "against-exact",
        [
          Alcotest.test_case "uniform matches exact" `Quick
            test_guideline_matches_exact_uniform;
          Alcotest.test_case "geo-dec matches exact" `Quick
            test_guideline_matches_exact_geo_dec;
          Alcotest.test_case "geo-inc >= [3] structure" `Quick
            test_guideline_geo_inc_at_least_exact_structure;
          QCheck_alcotest.to_alcotest prop_guideline_within_2pct_of_optimizer;
          QCheck_alcotest.to_alcotest prop_guideline_t0_in_paper_bounds_uniform;
          Alcotest.test_case "numerical inverse = closed form" `Quick
            test_numerical_inverse_plans_match_closed_form;
        ] );
      ( "search",
        [
          QCheck_alcotest.to_alcotest prop_certified_search_finds_unimodal_max;
          QCheck_alcotest.to_alcotest prop_certified_t0_is_first_order_optimal;
          Alcotest.test_case "an exact 0 of G says E falls" `Quick
            test_exact_zero_says_falls;
          Alcotest.test_case "power laws reach the grid" `Quick
            test_power_laws_reach_the_grid;
          Alcotest.test_case "evaluations by shape" `Quick
            test_evaluations_by_shape;
          Alcotest.test_case "evaluations do not hang on parameters" `Quick
            test_evaluations_steady;
          Alcotest.test_case "narrow bracket far from 0" `Quick
            test_narrow_bracket_far_from_zero;
          Alcotest.test_case "refuses past the period cap" `Quick
            test_refuses_past_the_period_cap;
        ] );
      ( "structure",
        [
          Alcotest.test_case "t0 inside bracket" `Quick
            test_guideline_t0_inside_own_bracket;
          Alcotest.test_case "beats single period" `Quick
            test_guideline_beats_naive_singleperiod;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "productive schedules" `Quick
            test_schedule_is_productive;
        ] );
      ( "online",
        [
          Alcotest.test_case "first step = plan t0" `Quick
            test_online_first_step_matches_plan;
          Alcotest.test_case "memoryless constant" `Quick
            test_online_memoryless_constant;
          Alcotest.test_case "shrinks near deadline" `Quick
            test_online_shrinks_near_deadline;
          Alcotest.test_case "none when exhausted" `Quick
            test_online_none_when_exhausted;
          Alcotest.test_case "validation" `Quick test_online_validation;
          Alcotest.test_case "progressive bits at 0 and on a fit" `Quick
            test_progressive_bits;
          Alcotest.test_case "progressive along episodes" `Quick
            test_progressive_episodes;
          Alcotest.test_case "progressive off the path" `Quick
            test_progressive_off_path;
        ] );
      ( "known-answers",
        [
          Alcotest.test_case "plans bit for bit" `Quick test_plan_known_answers;
          Alcotest.test_case "plan E is its schedule's, bit for bit" `Quick
            test_plan_e_is_its_schedules;
        ]
      );
    ]
