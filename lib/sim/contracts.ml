let expected_work_suspended ~c lf s =
  if c < 0.0 then
    invalid_arg "Contracts.expected_work_suspended: c must be >= 0";
  let ends = s.Schedule.ends in
  let acc = Kahan.create () in
  Array.iteri
    (fun i t ->
      let finish = ends.(i) in
      let start = finish -. t in
      let lo = start +. c in
      if lo < finish && Life_function.eval lf lo > 0.0 then
        Kahan.add acc
          (Quadrature.adaptive_simpson ~tol:1e-10 (Life_function.eval lf)
             ~lo ~hi:finish))
    s.Schedule.periods;
  Kahan.total acc

let single_period_value ~c lf =
  if c < 0.0 then invalid_arg "Contracts.single_period_value: c must be >= 0";
  let horizon = Life_function.horizon lf in
  if c >= horizon then 0.0
  else
    Quadrature.adaptive_simpson ~tol:1e-10 (Life_function.eval lf) ~lo:c
      ~hi:horizon
