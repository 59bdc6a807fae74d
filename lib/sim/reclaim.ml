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

let draw_exact lf g =
  let u = Prng.float g in
  let horizon = Life_function.horizon lf in
  if Life_function.eval lf horizon >= u then horizon
  else begin
    let f t = Life_function.eval lf t -. u in
    let r = Rootfind.bisect f ~lo:0.0 ~hi:horizon in
    r.Rootfind.root
  end

let mean_of_draws s g ~n =
  if n <= 0 then invalid_arg "Reclaim.mean_of_draws: n must be > 0";
  let acc = Kahan.create () in
  for _ = 1 to n do
    Kahan.add acc (draw s g)
  done;
  Kahan.total acc /. float_of_int n
