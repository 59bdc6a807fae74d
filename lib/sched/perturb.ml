let shift s ~k ~delta =
  let ts = Schedule.periods s in
  if k < 0 || k >= Array.length ts then
    invalid_arg "Perturb.shift: index out of range";
  let t' = ts.(k) +. delta in
  if t' <= 0.0 then None
  else begin
    ts.(k) <- t';
    Some (Schedule.of_periods ts)
  end

let perturb s ~k ~delta =
  let ts = Schedule.periods s in
  if k < 0 || k + 1 >= Array.length ts then
    invalid_arg "Perturb.perturb: index out of range";
  let a = ts.(k) +. delta and b = ts.(k + 1) -. delta in
  if a <= 0.0 || b <= 0.0 then None
  else begin
    ts.(k) <- a;
    ts.(k + 1) <- b;
    Some (Schedule.of_periods ts)
  end

type margin = { worst_delta : float; worst_k : int; margin : float }

let default_deltas s =
  let ts = Schedule.periods s in
  let tmin = Array.fold_left Float.min ts.(0) ts in
  Array.map (fun f -> f *. tmin) [| 0.001; 0.01; 0.05; 0.25 |]

(* The smallest margin over k in [0, k_limit) and each d of [deltas],
   +d before −d; the first one found wins a tie. [margin_at] is [None]
   for a perturbation outside the sweep. *)
let sweep ~k_limit deltas margin_at =
  let worst = ref { worst_delta = 0.0; worst_k = -1; margin = infinity } in
  for k = 0 to k_limit - 1 do
    Array.iter
      (fun d ->
        List.iter
          (fun delta ->
            match margin_at ~k ~delta with
            | Some m when m < !worst.margin ->
                worst := { worst_delta = delta; worst_k = k; margin = m }
            | Some _ | None -> ())
          [ d; -.d ])
      deltas
  done;
  if !worst.worst_k < 0 then { worst_delta = 0.0; worst_k = 0; margin = 0.0 }
  else !worst

let perturbation_margin ?deltas ?(min_period = 0.0) lf ~c s =
  let n = Schedule.num_periods s in
  if n < 2 then
    invalid_arg "Perturb.perturbation_margin: need at least 2 periods";
  let deltas = match deltas with Some d -> d | None -> default_deltas s in
  let { Schedule.periods = ts; ends } = s in
  (* A [k, ±δ]-perturbation changes t_k and t_{k+1} alone, so the other
     periods' admissibility is a count taken once. *)
  let low t = not (t > min_period) in
  let n_low = Array.fold_left (fun n t -> if low t then n + 1 else n) 0 ts in
  let term t t_end = Schedule.positive_sub t c *. Life_function.eval lf t_end in
  sweep ~k_limit:(n - 1) deltas (fun ~k ~delta ->
      let a = ts.(k) +. delta and b = ts.(k + 1) -. delta in
      let others_low =
        n_low - Bool.to_int (low ts.(k)) - Bool.to_int (low ts.(k + 1))
      in
      if a <= 0.0 || b <= 0.0 || low a || low b || others_low > 0 then None
      else
        (* T_k moves by δ and T_{k+1} stays, so eq. 2.1 changes in its
           terms k and k+1 only. Their differences cancel at the scale
           of a term, not of E. *)
        Some
          (term ts.(k) ends.(k) -. term a (ends.(k) +. delta)
          +. (term ts.(k + 1) ends.(k + 1) -. term b ends.(k + 1))))
