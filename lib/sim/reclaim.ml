type sampler =
  | Exact of { inv : float -> float; horizon : float; p_horizon : float }
  | Table of {
      (* Inverse CDF table: survival values (decreasing in time) paired
         with times; we interpolate time as a function of survival. *)
      inverse : Interp.t;
      horizon : float;
    }

let grid = 4096

let table lf horizon =
  (* Tabulate p on [0, horizon]. p decreases from 1; build the inverse on
     strictly increasing survival values (reverse time order). *)
  let ts = Array.init (grid + 1) (fun i ->
      float_of_int i /. float_of_int grid *. horizon)
  in
  let ps = Array.map (Life_function.eval lf) ts in
  (* Deduplicate plateaus so the inverse grid is strictly increasing. *)
  let pairs = ref [] in
  let last_p = ref neg_infinity in
  for i = grid downto 0 do
    if ps.(i) > !last_p +. 1e-12 then begin
      pairs := (ps.(i), ts.(i)) :: !pairs;
      last_p := ps.(i)
    end
  done;
  (* The prepending loop leaves the list in increasing-time order, i.e.
     decreasing survival; reverse below for an increasing interpolation
     grid. *)
  let pairs = Array.of_list !pairs in
  let n = Array.length pairs in
  let xs = Array.init n (fun i -> fst pairs.(n - 1 - i)) in
  let ys = Array.init n (fun i -> snd pairs.(n - 1 - i)) in
  Table { inverse = Interp.pchip ~xs ~ys; horizon }

let create lf =
  let horizon = Life_function.horizon lf in
  match Life_function.inverse lf with
  | Some inv ->
      Exact { inv; horizon; p_horizon = Life_function.eval lf horizon }
  | None -> table lf horizon

let draw s g =
  let u = Prng.float g in
  (* T > t iff p(t) > u, so T = p^{-1}(u); u at or below the survival
     left at the horizon maps to the horizon. *)
  match s with
  | Exact { inv; horizon; p_horizon } ->
      if u <= p_horizon then horizon
      else Float.min horizon (Float.max 0.0 (inv u))
  | Table { inverse; horizon } ->
      let lo, hi = Interp.domain inverse in
      if u <= lo then horizon
      else if u >= hi then 0.0
      else Float.max 0.0 (Float.min horizon (Interp.eval inverse u))

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
