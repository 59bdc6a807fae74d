type plan = { intervals : Schedule.t; expected_committed : float }

(* Truncate a schedule so its productive time (sum of t_i - c) covers
   [work] exactly, shortening the final interval as needed. *)
let truncate_to_work schedule ~c ~work =
  let periods = Schedule.periods schedule in
  let rev = ref [] in
  let committed = ref 0.0 in
  (try
     Array.iter
       (fun t ->
         let productive = Schedule.positive_sub t c in
         if !committed +. productive >= work -. 1e-12 then begin
           let needed = work -. !committed in
           if needed > 0.0 then rev := (c +. needed) :: !rev;
           committed := work;
           raise Exit
         end
         else begin
           rev := t :: !rev;
           (* Interleaves accumulation with the clamp-to-[work] assignment
              above; the few same-scale terms are compared with a 1e-12
              slack, so a compensated carrier would change nothing. *)
           (committed := !committed +. productive) [@lint.allow "R2"]
         end)
       periods
   with Exit -> ());
  match !rev with
  | [] -> None
  | l -> Some (Schedule.of_periods (Array.of_list (List.rev l)))

let plan_saves ?work lf ~c =
  if not (c > 0.0) then invalid_arg "Checkpoint.plan_saves: c must be > 0";
  if c >= Life_function.horizon lf then
    invalid_arg "Checkpoint.plan_saves: c >= horizon";
  (match work with
  | Some w when not (w > 0.0 && Float.is_finite w) ->
      invalid_arg "Checkpoint.plan_saves: work must be finite and > 0"
  | Some _ | None -> ());
  let g = Guideline.plan lf ~c in
  let intervals =
    match work with
    | None -> g.Guideline.schedule
    | Some w -> (
        match truncate_to_work g.Guideline.schedule ~c ~work:w with
        | Some s -> s
        | None -> g.Guideline.schedule)
  in
  {
    intervals;
    expected_committed = Schedule.expected_work ~c lf intervals;
  }

type sim_result = {
  makespan : float;
  failures : int;
  work_lost_total : float;
  checkpoints_written : int;
}

let simulate_restarts ~work ~c ~restart_cost lf g ~max_failures =
  if not (work > 0.0 && Float.is_finite work && c > 0.0 && restart_cost >= 0.0)
  then invalid_arg "Checkpoint.simulate_restarts: nonpositive parameters";
  if not (Float.is_finite restart_cost) then
    invalid_arg "Checkpoint.simulate_restarts: restart_cost must be finite";
  if max_failures < 0 then
    invalid_arg "Checkpoint.simulate_restarts: max_failures must be >= 0";
  (* Progress is possible iff the guideline plan can commit anything in
     expectation; check once up front rather than misreading an unlucky
     early failure as a dead end. *)
  let first_plan = plan_saves ~work lf ~c in
  if first_plan.expected_committed <= 0.0 then
    invalid_arg
      "Checkpoint.simulate_restarts: no progress possible (c too large for \
       this life function)";
  let sampler = Reclaim.create lf in
  let clock = Kahan.create () in
  let remaining = ref work in
  let failures = ref 0 in
  let lost = Kahan.create () in
  let checkpoints = ref 0 in
  while !remaining > 1e-9 && !failures <= max_failures do
    let plan = plan_saves ~work:!remaining lf ~c in
    let failure_at = Reclaim.draw sampler g in
    let o = Episode.run plan.intervals ~c ~reclaim_at:failure_at in
    Kahan.add clock o.Episode.elapsed;
    remaining := !remaining -. o.Episode.work_done;
    checkpoints := !checkpoints + o.Episode.periods_completed;
    if o.Episode.interrupted && !remaining > 1e-9 then begin
      incr failures;
      Kahan.add lost o.Episode.work_lost;
      Kahan.add clock restart_cost
    end
  done;
  {
    makespan = Kahan.total clock;
    failures = !failures;
    work_lost_total = Kahan.total lost;
    checkpoints_written = !checkpoints;
  }
