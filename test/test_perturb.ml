let lf = Families.uniform ~lifespan:100.0
let c = 1.0

let test_shift_changes_one_period () =
  let s = Schedule.of_list [ 5.0; 4.0; 3.0 ] in
  match Perturb.shift s ~k:1 ~delta:0.5 with
  | Some s' ->
      Alcotest.(check (float 0.0)) "period 0 unchanged" 5.0 (Schedule.period s' 0);
      Alcotest.(check (float 0.0)) "period 1 shifted" 4.5 (Schedule.period s' 1);
      Alcotest.(check (float 0.0)) "period 2 unchanged" 3.0 (Schedule.period s' 2)
  | None -> Alcotest.fail "shift should be valid"

let test_shift_rejects_nonpositive_result () =
  let s = Schedule.of_list [ 5.0; 4.0 ] in
  Alcotest.(check bool) "None on collapse" true
    (Perturb.shift s ~k:1 ~delta:(-4.0) = None)

let test_shift_out_of_range () =
  let s = Schedule.of_list [ 5.0 ] in
  match Perturb.shift s ~k:3 ~delta:0.1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range k accepted"

let test_perturb_preserves_duration () =
  let s = Schedule.of_list [ 5.0; 4.0; 3.0 ] in
  match Perturb.perturb s ~k:0 ~delta:0.7 with
  | Some s' ->
      Alcotest.(check (float 1e-12)) "total preserved"
        (Schedule.total_duration s) (Schedule.total_duration s');
      Alcotest.(check (float 0.0)) "k grew" 5.7 (Schedule.period s' 0);
      Alcotest.(check (float 1e-12)) "k+1 shrank" 3.3 (Schedule.period s' 1)
  | None -> Alcotest.fail "perturbation should be valid"

let test_perturb_rejects_collapse () =
  let s = Schedule.of_list [ 5.0; 1.0 ] in
  Alcotest.(check bool) "None when k+1 collapses" true
    (Perturb.perturb s ~k:0 ~delta:1.0 = None);
  Alcotest.(check bool) "None when k collapses" true
    (Perturb.perturb s ~k:0 ~delta:(-5.0) = None)

let test_perturb_out_of_range () =
  let s = Schedule.of_list [ 5.0; 4.0 ] in
  match Perturb.perturb s ~k:1 ~delta:0.1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k+1 out of range accepted"

(* --- Theorem 5.1 in action -------------------------------------------- *)

let test_recurrence_schedule_beats_perturbations () =
  (* A schedule built from the recurrence on a concave (here linear) life
     function must have a nonnegative perturbation margin. *)
  let g = Guideline.plan lf ~c in
  let m = Perturb.perturbation_margin ~min_period:c lf ~c g.Guideline.schedule in
  Alcotest.(check bool) "Thm 5.1 margin >= 0" true (m.Perturb.margin >= -1e-9)

let test_geo_inc_guideline_beats_perturbations () =
  let lfi = Families.geometric_increasing ~lifespan:30.0 in
  let g = Guideline.plan lfi ~c in
  if Schedule.num_periods g.Guideline.schedule >= 2 then begin
    let m =
      Perturb.perturbation_margin ~min_period:c lfi ~c g.Guideline.schedule
    in
    Alcotest.(check bool) "Thm 5.1 margin >= 0" true (m.Perturb.margin >= -1e-9)
  end

let test_bad_schedule_detected_by_perturbation () =
  (* Equal periods on uniform risk violate the recurrence; some
     perturbation must strictly improve them. *)
  let s = Schedule.of_list [ 10.0; 10.0; 10.0; 10.0 ] in
  let m = Perturb.perturbation_margin lf ~c s in
  Alcotest.(check bool) "improvable" true (m.Perturb.margin < 0.0)

(* Theorem 3.1's precondition by brute force: the least E(S) − E(S') over
   every [⟨k, ±δ⟩]-shift S' of S, δ ∈ {0.001, 0.01, 0.05, 0.25} × the
   shortest period. A shift moves every later end, so each S' is a full
   recompute of eq. 2.1. *)
let shift_margin lf ~c s =
  let e0 = Schedule.expected_work ~c lf s in
  let ts = Schedule.periods s in
  let tmin = Array.fold_left Float.min ts.(0) ts in
  let worst = ref infinity in
  Array.iteri
    (fun k _ ->
      List.iter
        (fun f ->
          List.iter
            (fun delta ->
              match Perturb.shift s ~k ~delta with
              | Some s' ->
                  worst :=
                    Float.min !worst (e0 -. Schedule.expected_work ~c lf s')
              | None -> ())
            [ f *. tmin; -.(f *. tmin) ])
        [ 0.001; 0.01; 0.05; 0.25 ])
    ts;
  !worst

let test_optimal_schedule_beats_shifts () =
  (* Theorem 3.1's precondition: the exact optimal schedule beats all
     shifts. *)
  let exact = Exact.uniform ~c ~lifespan:100.0 in
  let m = shift_margin lf ~c exact.Exact.schedule in
  Alcotest.(check bool) "shift margin >= 0" true (m >= -1e-9)

let test_margin_requires_two_periods () =
  let s = Schedule.of_list [ 5.0 ] in
  match Perturb.perturbation_margin lf ~c s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-period accepted"

let prop_thm51_recurrence_schedules_locally_optimal =
  (* Theorem 5.1 over random starting periods and concave shapes. *)
  QCheck.Test.make
    ~name:"recurrence-generated schedules beat perturbations (Thm 5.1)"
    ~count:40
    QCheck.(triple (float_range 8.0 25.0) (float_range 0.4 1.5) (int_range 1 3))
    (fun (t0, c, dsel) ->
      let lf =
        match dsel with
        | 1 -> Families.uniform ~lifespan:120.0
        | 2 -> Families.polynomial ~d:2 ~lifespan:120.0
        | _ -> Families.polynomial ~d:3 ~lifespan:120.0
      in
      let g = Recurrence.generate lf ~c ~t0 in
      (* Strip a trailing sub-c period: Thm 5.1's algebra uses ordinary
         subtraction and does not cover perturbing into dead tails. *)
      let s =
        let ps = Schedule.periods g.Recurrence.schedule in
        let n = Array.length ps in
        if n >= 2 && ps.(n - 1) <= c then
          Schedule.of_periods (Array.sub ps 0 (n - 1))
        else g.Recurrence.schedule
      in
      Schedule.num_periods s < 2
      ||
      let m = Perturb.perturbation_margin ~min_period:c lf ~c s in
      m.Perturb.margin >= -1e-7)

let test_margins_match_full_recompute () =
  (* The sweep prices each perturbation from the two terms it moves;
     the definition recomputes eq. 2.1 for a copied schedule. Compared
     one delta at a time, and over all four. Which perturbation is the
     worst is not compared: on uniform p every margin is delta^2 / L,
     so rounding picks among ties. *)
  let reference ~min_period ~deltas lf ~c s =
    let e0 = Schedule.expected_work ~c lf s in
    let worst = ref infinity in
    for k = 0 to Schedule.num_periods s - 2 do
      Array.iter
        (fun d ->
          List.iter
            (fun delta ->
              match Perturb.perturb s ~k ~delta with
              | Some s'
                when Array.for_all
                       (fun t -> t > min_period)
                       (Schedule.periods s') ->
                  worst :=
                    Float.min !worst (e0 -. Schedule.expected_work ~c lf s')
              | Some _ | None -> ())
            [ d; -.d ])
        deltas
    done;
    (e0, if Float.is_finite !worst then !worst else 0.0)
  in
  let recurrence lf ~c ~t0 =
    (Recurrence.generate lf ~c ~t0).Recurrence.schedule
  in
  let lfi = Families.geometric_increasing ~lifespan:30.0 in
  let poly2 = Families.polynomial ~d:2 ~lifespan:120.0 in
  let poly3 = Families.polynomial ~d:3 ~lifespan:120.0 in
  List.iter
    (fun (name, lf, c, s) ->
      let tmin = Array.fold_left Float.min infinity (Schedule.periods s) in
      let all = Array.map (fun f -> f *. tmin) [| 0.001; 0.01; 0.05; 0.25 |] in
      List.iter
        (fun (min_period, deltas) ->
          let e0, m = reference ~min_period ~deltas lf ~c s in
          let got = Perturb.perturbation_margin ~deltas ~min_period lf ~c s in
          if not (Float.abs (got.Perturb.margin -. m) <= 1e-12 *. e0) then
            Alcotest.failf "%s, min_period %g, %d deltas: margin %h, full %h"
              name min_period (Array.length deltas) got.Perturb.margin m)
        (List.concat_map
           (fun min_period ->
             (min_period, all)
             :: List.map (fun d -> (min_period, [| d |])) (Array.to_list all))
           [ 0.0; c ]))
    [
      ("uniform plan", lf, c, (Guideline.plan lf ~c).Guideline.schedule);
      ("geo-inc plan", lfi, c, (Guideline.plan lfi ~c).Guideline.schedule);
      ("equal periods", lf, c, Schedule.of_list [ 10.0; 10.0; 10.0; 10.0 ]);
      ("decreasing", lf, c, Schedule.of_list [ 5.0; 4.0; 3.0; 0.8 ]);
      ("poly d=2 from 12", poly2, 0.7, recurrence poly2 ~c:0.7 ~t0:12.0);
      ("poly d=3 from 20", poly3, 1.3, recurrence poly3 ~c:1.3 ~t0:20.0);
    ]

let prop_shift_none_only_on_collapse =
  QCheck.Test.make ~name:"shift returns None exactly when period collapses"
    ~count:200
    QCheck.(pair (float_range 0.1 5.0) (float_range (-6.0) 6.0))
    (fun (t, delta) ->
      let s = Schedule.of_list [ t; 1.0 ] in
      let result = Perturb.shift s ~k:0 ~delta in
      if t +. delta > 0.0 then result <> None else result = None)

let () =
  Alcotest.run "perturb"
    [
      ( "operators",
        [
          Alcotest.test_case "shift one period" `Quick
            test_shift_changes_one_period;
          Alcotest.test_case "shift rejects collapse" `Quick
            test_shift_rejects_nonpositive_result;
          Alcotest.test_case "shift out of range" `Quick test_shift_out_of_range;
          Alcotest.test_case "perturb preserves duration" `Quick
            test_perturb_preserves_duration;
          Alcotest.test_case "perturb rejects collapse" `Quick
            test_perturb_rejects_collapse;
          Alcotest.test_case "perturb out of range" `Quick
            test_perturb_out_of_range;
          QCheck_alcotest.to_alcotest prop_shift_none_only_on_collapse;
        ] );
      ( "thm-5.1",
        [
          Alcotest.test_case "recurrence beats perturbations" `Quick
            test_recurrence_schedule_beats_perturbations;
          Alcotest.test_case "geo-inc guideline margin" `Quick
            test_geo_inc_guideline_beats_perturbations;
          Alcotest.test_case "bad schedule improvable" `Quick
            test_bad_schedule_detected_by_perturbation;
          Alcotest.test_case "optimal beats shifts (Thm 3.1)" `Quick
            test_optimal_schedule_beats_shifts;
          Alcotest.test_case "needs two periods" `Quick
            test_margin_requires_two_periods;
          Alcotest.test_case "margins = full recompute" `Quick
            test_margins_match_full_recompute;
          QCheck_alcotest.to_alcotest
            prop_thm51_recurrence_schedules_locally_optimal;
        ] );
    ]
