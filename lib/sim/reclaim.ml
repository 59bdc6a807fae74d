type sampler = { inv : float -> float; horizon : float; p_horizon : float }

let create lf =
  let inv = Life_function.inverse lf and horizon = Life_function.horizon lf in
  { inv; horizon; p_horizon = Life_function.eval lf horizon }

let draw s g =
  let u = Prng.float g in
  (* T > t iff p(t) > u, so T = p^{-1}(u); u at or below the survival
     left at the horizon maps to the horizon. *)
  if u <= s.p_horizon then s.horizon
  else Float.min s.horizon (Float.max 0.0 (s.inv u))
