type point = {
  perturbation : float;
  planned_with : float;
  efficiency : float;
}

let factors = [ 0.25; 0.5; 0.8; 1.0; 1.25; 2.0; 4.0 ]

let c_misspecification lf ~c =
  if c <= 0.0 then invalid_arg "Sensitivity.c_misspecification: c must be > 0";
  let horizon = Life_function.horizon lf in
  if c >= horizon then
    invalid_arg "Sensitivity.c_misspecification: c >= horizon";
  let baseline =
    Schedule.expected_work ~c lf (Guideline.plan lf ~c).Guideline.schedule
  in
  factors
  |> List.filter_map (fun factor ->
         let c' = factor *. c in
         if c' <= 0.0 || c' >= horizon then None
         else begin
           let plan = Guideline.plan lf ~c:c' in
           (* The plan was built believing c'; reality charges c. *)
           let achieved = Schedule.expected_work ~c lf plan.Guideline.schedule in
           Some
             {
               perturbation = factor;
               planned_with = c';
               efficiency =
                 (if baseline > 0.0 then achieved /. baseline else 1.0);
             }
         end)

let lifespan_misspecification ~lifespan c =
  if not (c > 0.0 && c < lifespan) then
    invalid_arg
      "Sensitivity.lifespan_misspecification: requires 0 < c < lifespan";
  let truth = Families.uniform ~lifespan in
  let baseline =
    Schedule.expected_work ~c truth (Guideline.plan truth ~c).Guideline.schedule
  in
  factors
  |> List.filter_map (fun factor ->
         let l' = factor *. lifespan in
         if l' <= c then None
         else begin
           let believed = Families.uniform ~lifespan:l' in
           let plan = Guideline.plan believed ~c in
           let achieved =
             Schedule.expected_work ~c truth plan.Guideline.schedule
           in
           Some
             {
               perturbation = factor;
               planned_with = l';
               efficiency =
                 (if baseline > 0.0 then achieved /. baseline else 1.0);
             }
         end)
