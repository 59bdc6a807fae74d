type estimate = {
  life : Life_function.t;
  knots : (float * float) array;
  n_observed : int;
  n_censored : int;
}

(* Thin a step curve down to ~[target] knots at evenly spaced indices,
   always keeping the first and last point. *)
let thin target steps =
  let n = Array.length steps in
  if n <= target then steps
  else
    Array.init target (fun i ->
        let j =
          int_of_float
            (Float.round
               (float_of_int i /. float_of_int (target - 1)
               *. float_of_int (n - 1)))
        in
        steps.(j))

(* Assemble a life function from (time, survival) steps: prepend the
   boundary knot (0, 1), extend past the last event so the curve reaches
   exactly 0, deduplicate abscissae, force monotone nonincreasing values,
   and fit a monotone PCHIP. A knot within 1e-12 of the previous one is
   dropped, so steps that all lie within 1e-12 of 0 and reach 0 leave
   (0, 1) alone, and [caller] refuses them. *)
let life_of_steps ~caller ~name ~knots steps =
  let target = Int.max 4 (Int.min knots (Array.length steps)) in
  let thinned = thin target steps in
  let last_t, last_s = thinned.(Array.length thinned - 1) in
  let gap =
    if Array.length thinned >= 2 then
      Float.max 1e-9
        ((last_t -. fst thinned.(0)) /. float_of_int (Array.length thinned - 1))
    else Float.max 1e-9 (0.1 *. last_t)
  in
  let tail = if last_s > 0.0 then [ (last_t +. gap, 0.0) ] else [] in
  let raw = (0.0, 1.0) :: (Array.to_list thinned @ tail) in
  let cleaned = ref [] in
  let last_x = ref neg_infinity and last_y = ref 1.0 in
  List.iter
    (fun (x, y) ->
      let y = Float.min !last_y (Special.smooth_clamp01 y) in
      if x > !last_x +. 1e-12 then begin
        cleaned := (x, y) :: !cleaned;
        last_x := x;
        last_y := y
      end)
    raw;
  let pts = Array.of_list (List.rev !cleaned) in
  if Array.length pts < 2 then
    invalid_arg (caller ^ ": every duration lies within 1e-12 of 0");
  let xs = Array.map fst pts and ys = Array.map snd pts in
  let ip = Interp.pchip ~xs ~ys in
  (Families.of_interpolant ~name ip, pts)

let count_censored obs =
  Array.fold_left
    (fun acc o -> if o.Owner_model.observed then acc else acc + 1)
    0 obs

(* Reject what no absence can last (as Fit.check_durations does for
   fits): a negative, NaN or infinite duration. *)
let check_observations name obs =
  if Array.length obs = 0 then invalid_arg (name ^ ": empty input");
  Array.iter
    (fun o ->
      let d = o.Owner_model.duration in
      if not (Float.is_finite d && d >= 0.0) then
        invalid_arg (name ^ ": durations must be finite and >= 0"))
    obs

let raw_steps obs =
  check_observations "Survival.of_observations" obs;
  let n = Array.length obs in
  let n_censored = count_censored obs in
  if n - n_censored = 0 then
    invalid_arg "Survival.of_observations: all observations censored";
  if n_censored > 0 then
    Stats.kaplan_meier
      (Array.map (fun o -> (o.Owner_model.duration, o.Owner_model.observed)) obs)
  else Stats.ecdf_survival (Array.map (fun o -> o.Owner_model.duration) obs)

let of_observations ?(knots = 32) obs =
  let steps = raw_steps obs in
  let n = Array.length obs in
  let n_censored = count_censored obs in
  let name =
    Printf.sprintf "trace-estimate(n=%d%s)" n
      (if n_censored > 0 then Printf.sprintf ", %d censored" n_censored
       else "")
  in
  let life, pts =
    life_of_steps ~caller:"Survival.of_observations" ~name ~knots steps
  in
  { life; knots = pts; n_observed = n - n_censored; n_censored }

let of_durations ?knots ds =
  of_observations ?knots
    (Array.map (fun d -> { Owner_model.duration = d; observed = true }) ds)

type bands = {
  lower : Life_function.t;
  point : Life_function.t;
  upper : Life_function.t;
  z : float;
}

let confidence_bands ?(knots = 32) ?(z = 1.96) obs =
  if z < 0.0 then invalid_arg "Survival.confidence_bands: z must be >= 0";
  check_observations "Survival.confidence_bands" obs;
  let n = Array.length obs in
  if n - count_censored obs = 0 then
    invalid_arg "Survival.confidence_bands: all observations censored";
  let steps =
    Stats.kaplan_meier_greenwood
      (Array.map (fun o -> (o.Owner_model.duration, o.Owner_model.observed)) obs)
  in
  let shifted sign =
    (* Clamp into [0, 1]; life_of_steps enforces monotonicity. *)
    Array.map
      (fun (t, s, sd) -> (t, Special.smooth_clamp01 (s +. (sign *. z *. sd))))
      steps
  in
  let point_steps = Array.map (fun (t, s, _) -> (t, s)) steps in
  let mk tag curve =
    fst
      (life_of_steps ~caller:"Survival.confidence_bands"
         ~name:(Printf.sprintf "trace-%s(n=%d, z=%g)" tag n z)
         ~knots curve)
  in
  {
    lower = mk "lower" (shifted (-1.0));
    point = mk "point" point_steps;
    upper = mk "upper" (shifted 1.0);
    z;
  }

let survival_rmse e ~truth =
  let hi =
    match Life_function.support e.life with
    | Life_function.Bounded l -> l
    | Life_function.Unbounded -> Life_function.horizon e.life
  in
  let grid = 256 in
  let predicted =
    Array.init grid (fun i ->
        Life_function.eval e.life
          (float_of_int i /. float_of_int (grid - 1) *. hi))
  in
  let actual =
    Array.init grid (fun i ->
        Life_function.eval truth
          (float_of_int i /. float_of_int (grid - 1) *. hi))
  in
  Stats.rmse ~predicted ~actual
