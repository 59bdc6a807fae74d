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
    ]
