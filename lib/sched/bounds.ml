(* Common core of the Theorem 3.2/3.3 bounds:
   radical c t = sqrt(c^2/4 - c * p(t) / p'(at t or t/2)). p' < 0 on the
   support interior, so the radicand is >= c^2/4 and the square root is
   always defined there. *)

let radical lf ~c ~deriv_at t =
  let p = Life_function.eval lf t in
  let dp = Life_function.deriv lf deriv_at in
  if dp >= 0.0 then
    (* Flat or invalid derivative: treat the ratio as +infinity, meaning the
       bound degenerates; callers fall back to support-based limits. *)
    infinity
  else sqrt ((c *. c /. 4.0) -. (c *. p /. dp))

(* The guards here are NaN-safe: [not (c > 0.0)] rejects a NaN that
   [c <= 0.0] would let through to the bracket search. *)
let guard_domain name lf ~c =
  if not (c > 0.0) then invalid_arg (name ^ ": c must be > 0");
  let hi = Life_function.horizon lf in
  if c >= hi then invalid_arg (name ^ ": c >= horizon");
  hi

(* Scan resolution for the fixed-point searches. On a certified shape
   the sign changes of g are far apart, so 32 cells isolate the same
   crossing as 512 and Brent refines it to the same root (test_bounds
   checks this on a seeded corpus). A trace-fitted (Unknown) p has flat
   pieces where g jumps to −∞, which a coarse scan can step over. *)
let scan_cells lf =
  match Life_function.shape lf with
  | Life_function.Concave | Life_function.Convex | Life_function.Linear
  | Life_function.Log_concave ->
      32
  | Life_function.Unknown -> 512

(* Solve t = rhs(t) as the root of g(t) = t - rhs(t), scanning
   [scan_cells lf] cells of (lo, hi) for the sign change requested by
   [pick]: `First scans up from lo, `Last down from hi, each stopping at
   its first change. *)
let fixed_point lf ~pick ~lo ~hi g =
  let cells = scan_cells lf in
  let h = (hi -. lo) /. float_of_int cells in
  let x i = lo +. (float_of_int i *. h) in
  let changes a b = (a <= 0.0 && b > 0.0) || (a >= 0.0 && b < 0.0) in
  let rec up i prev =
    if i > cells then None
    else
      let v = g (x i) in
      if changes prev v then Some i else up (i + 1) v
  in
  let rec down i next =
    if i < 1 then None
    else
      let v = g (x (i - 1)) in
      if changes v next then Some i else down (i - 1) v
  in
  let cell =
    match pick with
    | `First -> up 1 (g lo)
    | `Last -> down cells (g (x cells))
  in
  Option.map
    (fun i ->
      let b = x i in
      (Rootfind.brent g ~lo:(b -. h) ~hi:b).Rootfind.root)
    cell

let lower_t0 lf ~c =
  let hi = guard_domain "Bounds.lower_t0" lf ~c in
  let g t =
    let r = radical lf ~c ~deriv_at:t t in
    if Float.is_finite r then t -. r -. (c /. 2.0) else neg_infinity
  in
  (* g < 0 just above c and g > 0 near the horizon; take the first root so
     the bracket stays conservative (every optimal t0 is above it). *)
  match fixed_point lf ~pick:`First ~lo:(c *. (1.0 +. 1e-9)) ~hi g with
  | Some t -> t
  | None -> c

let upper_generic name lf ~c ~deriv_of =
  let hi = guard_domain name lf ~c in
  let g t =
    let r = radical lf ~c ~deriv_at:(deriv_of t) t in
    if Float.is_finite r then t -. (2.0 *. r) -. c else neg_infinity
  in
  (* The theorem says the optimal t0 (if > 2c) satisfies g(t0) <= 0; the
     bound is the last crossing, above which g stays positive. *)
  match fixed_point lf ~pick:`Last ~lo:(c *. (1.0 +. 1e-9)) ~hi g with
  | Some t -> Float.max (2.0 *. c) t
  | None -> hi

let upper_t0_convex lf ~c =
  upper_generic "Bounds.upper_t0_convex" lf ~c ~deriv_of:(fun t -> t)

let upper_t0_concave lf ~c =
  upper_generic "Bounds.upper_t0_concave" lf ~c ~deriv_of:(fun t -> t /. 2.0)

let bracket lf ~c =
  let hi = guard_domain "Bounds.bracket" lf ~c in
  let lower = Float.max (lower_t0 lf ~c) (c *. (1.0 +. 1e-12)) in
  let upper =
    match Life_function.shape lf with
    | Life_function.Convex -> upper_t0_convex lf ~c
    | Life_function.Concave -> upper_t0_concave lf ~c
    | Life_function.Linear ->
        Float.min (upper_t0_convex lf ~c) (upper_t0_concave lf ~c)
    | Life_function.Log_concave | Life_function.Unknown -> hi
  in
  let upper = Float.min upper hi in
  if upper <= lower then (lower, Float.min (2.0 *. lower) hi) else (lower, upper)

let lower_t0_concave_lifespan ~c ~lifespan =
  if not (c > 0.0 && lifespan > 0.0) then
    invalid_arg "Bounds.lower_t0_concave_lifespan: c and lifespan must be > 0";
  sqrt (c *. lifespan /. 2.0) +. (0.75 *. c)

let lower_t0_concave_periods ~c ~lifespan ~m =
  if m < 1 then invalid_arg "Bounds.lower_t0_concave_periods: m must be >= 1";
  if not (c > 0.0 && lifespan > 0.0) then
    invalid_arg "Bounds.lower_t0_concave_periods: c and lifespan must be > 0";
  (lifespan /. float_of_int m) +. (float_of_int (m - 1) *. c /. 2.0)

let max_periods_concave ~c ~lifespan =
  if not (c > 0.0 && lifespan > 0.0) then
    invalid_arg "Bounds.max_periods_concave: c and lifespan must be > 0";
  let m = Float.ceil (sqrt ((2.0 *. (lifespan /. c)) +. 0.25) +. 0.5) in
  (* [int_of_float] wraps a bound past the int range, an infinite one (2L/c
     overflows near the float limit) included; saturate instead. *)
  if m < Float.of_int max_int then int_of_float m else max_int
