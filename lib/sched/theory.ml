type check = { name : string; holds : bool; detail : string }

let pass name detail = { name; holds = true; detail }
let fail name detail = { name; holds = false; detail }

let decrement_check lf ~c s =
  let name = "thm-5.2-decrement" and tol = 1e-7 in
  let ts = Schedule.periods s in
  let n = Array.length ts in
  if n < 2 then pass name "single period: vacuous"
  else begin
    match Life_function.shape lf with
    | Life_function.Unknown -> pass name "unknown shape: vacuous"
    | Life_function.Log_concave -> pass name "log-concave: vacuous"
    | Life_function.Concave | Life_function.Linear | Life_function.Convex -> (
        let concave =
          match Life_function.shape lf with
          | Life_function.Concave | Life_function.Linear -> true
          | Life_function.Convex | Life_function.Log_concave
          | Life_function.Unknown ->
              false
        in
        (* Thm 5.2 constrains internal periods; the last one is exempt. *)
        let worst = ref 0.0 and worst_i = ref (-1) in
        for i = 0 to n - 3 do
          let gap = ts.(i + 1) -. (ts.(i) -. c) in
          let violation = if concave then gap else -.gap in
          if violation > !worst then begin
            worst := violation;
            worst_i := i
          end
        done;
        if !worst <= tol then
          pass name
            (Printf.sprintf "%s: all internal decrements respect %s c"
               (if concave then "concave" else "convex")
               (if concave then ">=" else "<="))
        else
          fail name
            (Printf.sprintf "period %d violates by %g" !worst_i !worst))
  end

let period_count_check lf ~c s =
  let name = "cor-5.2/5.3-period-count" in
  match (Life_function.shape lf, Life_function.support lf) with
  | (Life_function.Concave | Life_function.Linear), Life_function.Bounded l ->
      let m = Schedule.num_periods s in
      let bound = Bounds.max_periods_concave ~c ~lifespan:l in
      let t0 = Schedule.period s 0 in
      let t0_bound = int_of_float (Float.ceil (t0 /. c)) in
      if m < bound && m <= Int.max 1 t0_bound then
        pass name (Printf.sprintf "m = %d < %d and m <= t0/c = %d" m bound t0_bound)
      else
        fail name
          (Printf.sprintf "m = %d vs bound %d (t0/c = %d)" m bound t0_bound)
  | _, _ -> pass name "not concave-bounded: vacuous"

let t0_bounds_check lf ~c s =
  let name = "thm-3.2/3.3-t0-bracket" and tol = 1e-6 in
  let lo, hi = Bounds.bracket lf ~c in
  let t0 = Schedule.period s 0 in
  let slack = tol *. Float.max 1.0 (Float.abs t0) in
  if t0 >= lo -. slack && t0 <= hi +. slack then
    pass name (Printf.sprintf "t0 = %.6g inside [%.6g, %.6g]" t0 lo hi)
  else fail name (Printf.sprintf "t0 = %.6g outside [%.6g, %.6g]" t0 lo hi)

let recurrence_check lf ~c s =
  let name = "cor-3.1-recurrence" and tol = 1e-6 in
  let res = Recurrence.residuals lf ~c s in
  if Array.length res = 0 then pass name "single period: vacuous"
  else begin
    let worst = Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0.0 res in
    if worst <= tol then
      pass name (Printf.sprintf "max |residual| = %.3g" worst)
    else fail name (Printf.sprintf "max |residual| = %.3g > %g" worst tol)
  end

(* Theorem 5.1 is proved for expected work with ordinary subtraction, which
   Proposition 2.1 justifies for all periods except a possibly-sub-c final
   one. Under positive subtraction that trailing period is worthless dead
   time and perturbing into it can "win", so the check strips it first. *)
let strip_trailing_unproductive ~c s =
  let ps = Schedule.periods s in
  let n = Array.length ps in
  if n >= 2 && ps.(n - 1) <= c then
    Schedule.of_periods (Array.sub ps 0 (n - 1))
  else s

let local_optimality_check lf ~c s =
  let name = "thm-5.1-local-optimality" in
  let s = strip_trailing_unproductive ~c s in
  if Schedule.num_periods s < 2 then pass name "single period: vacuous"
  else begin
    match Life_function.shape lf with
    | Life_function.Concave | Life_function.Linear ->
        let m = Perturb.perturbation_margin ~min_period:c lf ~c s in
        if m.Perturb.margin >= -1e-9 then
          pass name
            (Printf.sprintf "min margin %.3g at period %d" m.Perturb.margin
               m.Perturb.worst_k)
        else
          fail name
            (Printf.sprintf "perturbation at period %d (delta %.3g) improves E by %.3g"
               m.Perturb.worst_k m.Perturb.worst_delta (-.m.Perturb.margin))
    | Life_function.Convex | Life_function.Log_concave | Life_function.Unknown
      ->
        pass name "not concave: vacuous"
  end

let full_report lf ~c s =
  [
    decrement_check lf ~c s;
    period_count_check lf ~c s;
    t0_bounds_check lf ~c s;
    recurrence_check lf ~c s;
    local_optimality_check lf ~c s;
  ]

let pp_check ppf { name; holds; detail } =
  Format.fprintf ppf "%-28s %s  %s" name (if holds then "PASS" else "FAIL")
    detail
