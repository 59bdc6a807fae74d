let c = 1.0

let test_work_step_function () =
  let s = Schedule.of_list [ 4.0; 3.0 ] in
  Alcotest.(check (float 1e-12)) "before first" 0.0
    (Worst_case.work_if_killed_at s ~c 3.9);
  Alcotest.(check (float 1e-12)) "at first" 3.0
    (Worst_case.work_if_killed_at s ~c 4.0);
  Alcotest.(check (float 1e-12)) "all done" 5.0
    (Worst_case.work_if_killed_at s ~c 7.0)

let test_work_matches_episode () =
  (* W_S agrees with the simulator's accounting at every probe. *)
  let s = Schedule.of_list [ 5.0; 4.0; 3.0; 2.0 ] in
  List.iter
    (fun t ->
      Alcotest.(check (float 1e-12)) "consistent with Episode"
        (Episode.run s ~c ~reclaim_at:t).Episode.work_done
        (Worst_case.work_if_killed_at s ~c t))
    [ 0.0; 4.9; 5.0; 8.9; 9.0; 12.0; 13.9; 14.0; 99.0 ]

let test_ratio_hand_computed () =
  (* S = [2; 2], grace 2, horizon 6:
     t in [2, 4): W = 1, worst at t->4^-: 1/3.
     t in [4, 6]: W = 2, worst at 6: 2/5.
     critical points: grace 2 -> 1/1; before T_1=4 -> 1/3; horizon -> 2/5.
     infimum = 1/3. *)
  let s = Schedule.of_list [ 2.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "hand ratio" (1.0 /. 3.0)
    (Worst_case.competitive_ratio s ~c ~grace:2.0 ~horizon:6.0)

let test_ratio_zero_when_nothing_by_grace () =
  let s = Schedule.of_list [ 50.0 ] in
  Alcotest.(check (float 0.0)) "zero" 0.0
    (Worst_case.competitive_ratio s ~c ~grace:5.0 ~horizon:100.0)

let test_ratio_validation () =
  let s = Schedule.of_list [ 2.0 ] in
  (match Worst_case.competitive_ratio s ~c ~grace:0.5 ~horizon:10.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grace <= c accepted");
  match Worst_case.competitive_ratio s ~c ~grace:5.0 ~horizon:4.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "horizon < grace accepted"

let test_geometric_schedule_structure () =
  let s = Worst_case.geometric_schedule ~horizon:100.0 ~t0:4.0 ~factor:2.0 in
  let ps = Schedule.periods s in
  Alcotest.(check (float 0.0)) "first" 4.0 ps.(0);
  Alcotest.(check (float 0.0)) "second" 8.0 ps.(1);
  Alcotest.(check (float 1e-9)) "covers horizon" 100.0
    (Schedule.total_duration s)

let test_geometric_validation () =
  match Worst_case.geometric_schedule ~horizon:10.0 ~t0:0.0 ~factor:2.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "t0 = 0 accepted"

let test_plan_achieves_positive_ratio () =
  let w = Worst_case.plan ~c ~horizon:100.0 () in
  Alcotest.(check bool) "ratio substantial" true (w.Worst_case.ratio > 0.4);
  Alcotest.(check bool) "ratio < 1" true (w.Worst_case.ratio < 1.0)

let test_plan_ratio_consistent () =
  let w = Worst_case.plan ~c ~horizon:60.0 () in
  Alcotest.(check (float 1e-9)) "reported = evaluated" w.Worst_case.ratio
    (Worst_case.competitive_ratio w.Worst_case.schedule ~c
       ~grace:w.Worst_case.grace ~horizon:w.Worst_case.horizon)

let test_plan_beats_guideline_worst_case () =
  (* The expected-work guideline has no adversarial guarantee; its ratio
     must be below the dedicated plan's. *)
  let horizon = 100.0 in
  let w = Worst_case.plan ~c ~horizon () in
  let g = Guideline.plan (Families.uniform ~lifespan:horizon) ~c in
  let rg =
    Worst_case.competitive_ratio g.Guideline.schedule ~c
      ~grace:w.Worst_case.grace ~horizon
  in
  Alcotest.(check bool)
    (Printf.sprintf "dedicated %.3f > guideline %.3f" w.Worst_case.ratio rg)
    true
    (w.Worst_case.ratio > rg)

let test_plan_pays_in_expectation () =
  (* ...and conversely the guarantee costs expected work under uniform p. *)
  let horizon = 100.0 in
  let lf = Families.uniform ~lifespan:horizon in
  let w = Worst_case.plan ~c ~horizon () in
  let g = Guideline.plan lf ~c in
  Alcotest.(check bool) "guideline E higher" true
    (g.Guideline.expected_work
    > Schedule.expected_work ~c lf w.Worst_case.schedule)

let test_plan_validation () =
  (match Worst_case.plan ~c ~horizon:4.0 ~grace:5.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "horizon <= grace accepted");
  match Worst_case.plan ~c ~horizon:10.0 ~grace:0.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grace <= c accepted"

let prop_sampled_infimum_matches_exact =
  QCheck.Test.make
    ~name:"exact critical-point ratio equals dense sampling" ~count:60
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 12) (float_range 0.5 10.0))
        (float_range 10.0 60.0))
    (fun (ts, horizon) ->
      let s = Schedule.of_periods ts in
      let grace = 3.0 in
      let exact = Worst_case.competitive_ratio s ~c ~grace ~horizon in
      let sampled = ref infinity in
      for i = 0 to 4000 do
        let t = grace +. (float_of_int i /. 4000.0 *. (horizon -. grace)) in
        sampled :=
          Float.min !sampled (Worst_case.work_if_killed_at s ~c t /. (t -. c))
      done;
      (* Dense sampling can only miss the infimum from above by a grid gap. *)
      exact <= !sampled +. 1e-9 && exact >= !sampled -. 0.05)

let prop_ratio_monotone_in_horizon =
  QCheck.Test.make ~name:"ratio weakly decreases as the horizon grows"
    ~count:60
    QCheck.(array_of_size Gen.(int_range 1 10) (float_range 0.5 8.0))
    (fun ts ->
      let s = Schedule.of_periods ts in
      let grace = 3.0 in
      let r1 = Worst_case.competitive_ratio s ~c ~grace ~horizon:20.0 in
      let r2 = Worst_case.competitive_ratio s ~c ~grace ~horizon:40.0 in
      r2 <= r1 +. 1e-12)

(* The ratio as first written: W_S re-summed from the first period at
   each critical instant, O(n²). The one-pass library version must give
   its bits. *)
let quadratic_ratio s ~c ~grace ~horizon =
  let denom t = Float.max 1e-300 (t -. c) in
  let w = Worst_case.work_if_killed_at s ~c in
  let worst = ref (w grace /. denom grace) in
  Array.iter
    (fun e ->
      if e > grace && e <= horizon then
        worst :=
          Float.min !worst (w ((e *. (1.0 -. 1e-12)) -. 1e-12) /. denom e))
    s.Schedule.ends;
  Float.max 0.0 (Float.min !worst (w horizon /. denom horizon))

(* A schedule of 1–60 periods (some at or under c), a c, a grace and a
   horizon from [seed]. Every other grace lies within 1e-12 relative of a
   completion, and the horizon often cuts the schedule short. *)
let ratio_case seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let range lo hi = Prng.float_range g ~lo ~hi in
  let c = range 0.1 2.0 in
  let ts =
    Array.init (1 + Prng.int g ~bound:60) (fun _ ->
        if Prng.int g ~bound:5 = 0 then range 1e-3 c else range c (10.0 *. c))
  in
  let s = Schedule.of_periods ts in
  let ends = s.Schedule.ends in
  let total = ends.(Array.length ends - 1) in
  let grace =
    if Prng.bool g then
      let e = ends.(Prng.int g ~bound:(Array.length ends)) in
      e *. (1.0 +. range (-1e-12) 1e-12)
    else range c (c +. total)
  in
  let grace = if grace > c then grace else c *. (1.0 +. 1e-9) in
  let horizon = grace +. range 0.0 (1.2 *. Float.max c (total -. grace)) in
  (s, c, grace, horizon)

let prop_one_pass_ratio_is_bitwise =
  QCheck.Test.make ~name:"one-pass ratio = the O(n^2) ratio, bitwise"
    ~count:300
    (QCheck.make
       ~print:(fun seed ->
         let s, c, grace, horizon = ratio_case seed in
         Printf.sprintf "%d periods, c=%h, grace=%h, horizon=%h"
           (Schedule.num_periods s) c grace horizon)
       QCheck.Gen.nat)
    (fun seed ->
      let s, c, grace, horizon = ratio_case seed in
      Int64.equal
        (Int64.bits_of_float
           (Worst_case.competitive_ratio s ~c ~grace ~horizon))
        (Int64.bits_of_float (quadratic_ratio s ~c ~grace ~horizon)))

let () =
  Alcotest.run "worst_case"
    [
      ( "worst_case",
        [
          Alcotest.test_case "work step function" `Quick
            test_work_step_function;
          Alcotest.test_case "work matches episode" `Quick
            test_work_matches_episode;
          Alcotest.test_case "hand-computed ratio" `Quick
            test_ratio_hand_computed;
          Alcotest.test_case "zero without grace completion" `Quick
            test_ratio_zero_when_nothing_by_grace;
          Alcotest.test_case "ratio validation" `Quick test_ratio_validation;
          Alcotest.test_case "geometric structure" `Quick
            test_geometric_schedule_structure;
          Alcotest.test_case "geometric validation" `Quick
            test_geometric_validation;
          Alcotest.test_case "plan positive ratio" `Quick
            test_plan_achieves_positive_ratio;
          Alcotest.test_case "plan ratio consistent" `Quick
            test_plan_ratio_consistent;
          Alcotest.test_case "plan beats guideline worst case" `Quick
            test_plan_beats_guideline_worst_case;
          Alcotest.test_case "guarantee costs expectation" `Quick
            test_plan_pays_in_expectation;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          QCheck_alcotest.to_alcotest prop_sampled_infimum_matches_exact;
          QCheck_alcotest.to_alcotest prop_ratio_monotone_in_horizon;
          QCheck_alcotest.to_alcotest prop_one_pass_ratio_is_bitwise;
        ] );
    ]
