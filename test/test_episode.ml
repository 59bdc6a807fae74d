let feq ?(eps = 1e-12) a b = Alcotest.(check (float eps)) "value" a b
let s = Schedule.of_list [ 5.0; 4.0; 3.0 ] (* ends at 5, 9, 12 *)
let c = 1.0

let test_never_reclaimed () =
  let o = Episode.run s ~c ~reclaim_at:100.0 in
  feq 9.0 o.Episode.work_done;
  (* (5-1)+(4-1)+(3-1) *)
  feq 0.0 o.Episode.work_lost;
  feq 3.0 o.Episode.overhead;
  Alcotest.(check int) "periods" 3 o.Episode.periods_completed;
  Alcotest.(check bool) "not interrupted" false o.Episode.interrupted;
  feq 12.0 o.Episode.elapsed

let test_reclaimed_mid_first_period () =
  let o = Episode.run s ~c ~reclaim_at:3.0 in
  feq 0.0 o.Episode.work_done;
  (* 3 units elapsed, c = 1 of them overhead: 2 productive lost *)
  feq 2.0 o.Episode.work_lost;
  feq 1.0 o.Episode.overhead;
  Alcotest.(check bool) "interrupted" true o.Episode.interrupted;
  feq 3.0 o.Episode.elapsed

let test_reclaimed_between_periods () =
  (* Reclaim at exactly 5.0: first period completes (paper convention),
     second never starts productive work... it starts at 5.0 and the kill
     arrives at its very start. *)
  let o = Episode.run s ~c ~reclaim_at:5.0 in
  feq 4.0 o.Episode.work_done;
  feq 0.0 o.Episode.work_lost;
  Alcotest.(check int) "one period" 1 o.Episode.periods_completed;
  Alcotest.(check bool) "interrupted" true o.Episode.interrupted

let test_reclaimed_exactly_at_period_end () =
  (* Reclaim at 9.0 = end of second period: both count as completed. *)
  let o = Episode.run s ~c ~reclaim_at:9.0 in
  feq 7.0 o.Episode.work_done;
  Alcotest.(check int) "two periods" 2 o.Episode.periods_completed

let test_reclaimed_in_overhead_phase () =
  (* Reclaim at 5.5: second period started at 5, only 0.5 of it elapsed —
     that is still within the c = 1 overhead, so no productive work lost. *)
  let o = Episode.run s ~c ~reclaim_at:5.5 in
  feq 4.0 o.Episode.work_done;
  feq 0.0 o.Episode.work_lost;
  feq 1.5 o.Episode.overhead (* 1.0 for period 1 + 0.5 partial *)

let test_reclaim_at_zero () =
  let o = Episode.run s ~c ~reclaim_at:0.0 in
  feq 0.0 o.Episode.work_done;
  feq 0.0 o.Episode.work_lost;
  Alcotest.(check bool) "interrupted" true o.Episode.interrupted

let test_short_period_contributes_nothing () =
  let s' = Schedule.of_list [ 0.5; 5.0 ] in
  let o = Episode.run s' ~c ~reclaim_at:100.0 in
  feq 4.0 o.Episode.work_done;
  (* overhead: min(0.5, 1) + 1 *)
  feq 1.5 o.Episode.overhead

let test_validation () =
  (match Episode.run s ~c:(-1.0) ~reclaim_at:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted");
  match Episode.run s ~c ~reclaim_at:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative reclaim accepted"

let test_work_function_is_step () =
  (* W_S(t) is a right-continuous step function jumping at completion
     times. *)
  feq 0.0 (Episode.work_if_reclaimed_at s ~c 4.999);
  feq 4.0 (Episode.work_if_reclaimed_at s ~c 5.0);
  feq 4.0 (Episode.work_if_reclaimed_at s ~c 8.999);
  feq 7.0 (Episode.work_if_reclaimed_at s ~c 9.0);
  feq 9.0 (Episode.work_if_reclaimed_at s ~c 12.0)

let test_expected_work_is_integral_of_work_function () =
  (* E(S;p) = ∫ W_S dP = Σ_i W(T_i) ΔP — independently verify eq. 2.1 by
     integrating the step function against the uniform density. *)
  let l = 20.0 in
  let lf = Families.uniform ~lifespan:l in
  let s = Schedule.of_list [ 6.0; 5.0; 4.0 ] in
  (* Integrate W(t) * f(t) dt + W(L) * p(L) with f = 1/L, p(L) = 0. *)
  let integral =
    Quadrature.adaptive_simpson ~tol:1e-10
      (fun t -> Episode.work_if_reclaimed_at s ~c t /. l)
      ~lo:0.0 ~hi:l
  in
  feq ~eps:1e-6 (Schedule.expected_work ~c lf s) integral

let prop_work_done_le_capacity =
  QCheck.Test.make ~name:"episode work <= capacity" ~count:300
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 10) (float_range 0.5 10.0))
        (float_range 0.0 60.0))
    (fun (ts, reclaim_at) ->
      let s = Schedule.of_periods ts in
      let o = Episode.run s ~c:1.0 ~reclaim_at in
      o.Episode.work_done <= Schedule.work_capacity ~c:1.0 s +. 1e-9)

let prop_work_monotone_in_reclaim_time =
  QCheck.Test.make ~name:"work done is monotone in the reclaim time"
    ~count:300
    QCheck.(
      triple
        (array_of_size Gen.(int_range 1 8) (float_range 0.5 8.0))
        (float_range 0.0 40.0) (float_range 0.0 10.0))
    (fun (ts, r1, dr) ->
      let s = Schedule.of_periods ts in
      Episode.work_if_reclaimed_at s ~c:1.0 (r1 +. dr)
      >= Episode.work_if_reclaimed_at s ~c:1.0 r1 -. 1e-12)

let prop_accounting_conserves_time =
  (* Completed periods' durations + current in-flight time = elapsed. *)
  QCheck.Test.make ~name:"episode elapsed time is consistent" ~count:300
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 8) (float_range 0.5 8.0))
        (float_range 0.0 50.0))
    (fun (ts, reclaim_at) ->
      let s = Schedule.of_periods ts in
      let o = Episode.run s ~c:1.0 ~reclaim_at in
      if o.Episode.interrupted then Float.abs (o.Episode.elapsed -. reclaim_at) < 1e-9
      else Float.abs (o.Episode.elapsed -. Schedule.total_duration s) < 1e-9)

(* The replay reads the schedule's arrays in place: a trial killed in
   period 0 of a ~200-period schedule allocates no more than one killed
   in period 0 of a 2-period schedule, where copying the arrays would
   cost O(n) words. *)
let test_allocation_flat_in_length () =
  let long =
    (Guideline.plan (Families.weibull ~shape:0.8 ~scale:60.0) ~c)
      .Guideline.schedule
  in
  let short = Schedule.of_list [ 20.0; 20.0 ] in
  let reclaim_at = 0.5 *. Schedule.period long 0 in
  let minor_words sched =
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (Episode.run sched ~c ~reclaim_at))
    done;
    Gc.minor_words () -. before
  in
  let w_long = minor_words long and w_short = minor_words short in
  if Schedule.num_periods long < 100 || w_long > w_short then
    Alcotest.failf "%d periods: %.0f minor words, against %.0f for 2"
      (Schedule.num_periods long) w_long w_short

(* [play] against [run]. Every plan of a family, plus seeded random
   period arrays, each at c = 0, at a c between two period lengths and at
   a c above every period; every reclaim instant [instants] gives. *)
let bits = Int64.bits_of_float

let outcome_bits (o : Episode.outcome) =
  [|
    bits o.Episode.work_done; bits o.Episode.work_lost;
    bits o.Episode.overhead; bits o.Episode.elapsed;
    Int64.of_int o.Episode.periods_completed;
    (if o.Episode.interrupted then 1L else 0L);
  |]

let family_plans =
  lazy
    (List.map
       (fun lf -> (Guideline.plan lf ~c).Guideline.schedule)
       [
         Families.uniform ~lifespan:100.0;
         Families.polynomial ~d:3 ~lifespan:80.0;
         Families.geometric_decreasing ~a:(exp 0.05);
         Families.exponential ~rate:0.03;
         Families.geometric_increasing ~lifespan:30.0;
         Families.weibull ~shape:1.5 ~scale:100.0;
         Families.weibull ~shape:0.8 ~scale:60.0;
         Families.power_law ~d:2.0;
       ])

let random_schedules =
  lazy
    (let g = Prng.create ~seed:31L in
     List.init 40 (fun _ ->
         let n = 1 + Prng.int g ~bound:30 in
         Schedule.of_periods
           (Array.init n (fun _ ->
                (* Lengths over twenty decades: a sum of them loses whole
                   terms to rounding, and the compensation carries them. *)
                10.0 ** Prng.float_range g ~lo:(-3.0) ~hi:17.0))))

(* 0, c between the shortest and longest period, and c above all. *)
let overheads s =
  let ps = Schedule.periods s in
  let lo = Array.fold_left Float.min infinity ps
  and hi = Array.fold_left Float.max 0.0 ps in
  [ 0.0; 0.5 *. (lo +. hi); 2.0 *. hi ]

(* 0, every period end and the floats either side of it, the middle of
   every period, instants past the end, NaN (which completes no period)
   and seeded draws. *)
let instants g s =
  let ends = s.Schedule.ends in
  let total = Schedule.total_duration s in
  let fixed =
    Array.to_list ends
    |> List.concat_map (fun e -> [ Float.pred e; e; Float.succ e ])
  in
  let mids =
    List.init (Array.length ends) (fun i ->
        ends.(i) -. (0.5 *. Schedule.period s i))
  in
  let draws =
    List.init 50 (fun _ -> Prng.float_range g ~lo:0.0 ~hi:(1.2 *. total))
  in
  (0.0 :: fixed) @ mids
  @ [ Float.succ total; 2.0 *. total; infinity; Float.nan ]
  @ draws

(* (schedule, c, its replay, reclaim instants) *)
let all_cases () =
  let g = Prng.create ~seed:17L in
  List.concat_map
    (fun s ->
      List.map
        (fun c -> (s, c, Episode.replay s ~c, instants g s))
        (overheads s))
    (Lazy.force family_plans @ Lazy.force random_schedules)

let test_play_equals_run () =
  let count = ref 0 in
  List.iter
    (fun (s, c, r, ts) ->
      List.iter
        (fun reclaim_at ->
          incr count;
          let want = outcome_bits (Episode.run s ~c ~reclaim_at) in
          let got = outcome_bits (Episode.play r ~reclaim_at) in
          if want <> got then
            Alcotest.failf
              "%d periods, c = %h, reclaim at %h: play differs from run"
              (Schedule.num_periods s) c reclaim_at)
        ts)
    (all_cases ());
  if !count < 10_000 then Alcotest.failf "only %d cases" !count

(* The same pairs, observed: the event lists and the [episode.run] span's
   name and attributes agree too. A trial emits two events per completed
   period, so on the 1,739-period power-law plan only every 25th instant
   is observed. *)
let test_play_events_equal_run () =
  let observe f =
    let events = ref [] in
    let spans = Obs.Span.create () in
    let obs =
      Obs.create ~sink:(Obs.Sink.Custom (fun ev -> events := ev :: !events))
        ~spans ()
    in
    let o = f obs in
    ( outcome_bits o,
      List.rev !events,
      List.map
        (fun sp -> (sp.Obs.Span.name, sp.Obs.Span.attrs))
        (Obs.Span.spans spans) )
  in
  List.iter
    (fun (s, c, r, ts) ->
      List.iter
        (fun reclaim_at ->
          let want =
            observe (fun obs ->
                Episode.run ~obs ~ws:3 ~ep:7 s ~c ~reclaim_at)
          in
          let got =
            observe (fun obs -> Episode.play ~obs ~ws:3 ~ep:7 r ~reclaim_at)
          in
          if compare want got <> 0 then
            Alcotest.failf
              "%d periods, c = %h, reclaim at %h: play observed differs"
              (Schedule.num_periods s) c reclaim_at)
        (List.filteri
           (fun i _ -> Schedule.num_periods s <= 200 || i mod 25 = 0)
           ts))
    (all_cases ())

let test_replay_validation () =
  (match Episode.replay s ~c:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted");
  match Episode.play (Episode.replay s ~c) ~reclaim_at:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative reclaim accepted"

(* A played trial reads two table slots whatever its completed count: a
   trial that completes ~150 periods of a ~200-period schedule allocates
   no more than one killed in period 0 of a 2-period schedule, where
   [run] boxes two addends per completed period. *)
let test_play_allocation_flat_in_length () =
  let long =
    (Guideline.plan (Families.weibull ~shape:0.8 ~scale:60.0) ~c)
      .Guideline.schedule
  in
  let short = Schedule.of_list [ 20.0; 20.0 ] in
  let minor_words sched reclaim_at =
    let r = Episode.replay sched ~c in
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (Episode.play r ~reclaim_at))
    done;
    Gc.minor_words () -. before
  in
  let deep = Schedule.num_periods long * 3 / 4 in
  let reclaim_at =
    long.Schedule.ends.(deep) -. (0.5 *. Schedule.period long deep)
  in
  let w_long = minor_words long reclaim_at
  and w_short = minor_words short 10.0 in
  if Schedule.num_periods long < 100 || w_long > w_short then
    Alcotest.failf "%d periods: %.0f minor words, against %.0f for 2"
      (Schedule.num_periods long) w_long w_short

let () =
  Alcotest.run "episode"
    [
      ( "episode",
        [
          Alcotest.test_case "never reclaimed" `Quick test_never_reclaimed;
          Alcotest.test_case "mid first period" `Quick
            test_reclaimed_mid_first_period;
          Alcotest.test_case "between periods" `Quick
            test_reclaimed_between_periods;
          Alcotest.test_case "exactly at period end" `Quick
            test_reclaimed_exactly_at_period_end;
          Alcotest.test_case "in overhead phase" `Quick
            test_reclaimed_in_overhead_phase;
          Alcotest.test_case "reclaim at zero" `Quick test_reclaim_at_zero;
          Alcotest.test_case "short period" `Quick
            test_short_period_contributes_nothing;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "work step function" `Quick
            test_work_function_is_step;
          Alcotest.test_case "E = integral of W (eq 2.1)" `Quick
            test_expected_work_is_integral_of_work_function;
          QCheck_alcotest.to_alcotest prop_work_done_le_capacity;
          QCheck_alcotest.to_alcotest prop_work_monotone_in_reclaim_time;
          QCheck_alcotest.to_alcotest prop_accounting_conserves_time;
          Alcotest.test_case "allocation flat in length" `Quick
            test_allocation_flat_in_length;
        ] );
      ( "replay",
        [
          Alcotest.test_case "play = run, bitwise" `Quick test_play_equals_run;
          Alcotest.test_case "play's events and span = run's" `Quick
            test_play_events_equal_run;
          Alcotest.test_case "validation" `Quick test_replay_validation;
          Alcotest.test_case "allocation flat in length" `Quick
            test_play_allocation_flat_in_length;
        ] );
    ]
