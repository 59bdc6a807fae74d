let poly_scale ~d ~c ~lifespan =
  let df = float_of_int d in
  Float.pow (c /. df) (1.0 /. (df +. 1.0))
  *. Float.pow lifespan (df /. (df +. 1.0))

let poly_t0_lower ~d ~c ~lifespan = poly_scale ~d ~c ~lifespan

let poly_t0_upper ~d ~c ~lifespan = (2.0 *. poly_scale ~d ~c ~lifespan) +. 1.0

let uniform_t0_lower ~c ~lifespan = sqrt (c *. lifespan)

let uniform_t0_upper ~c ~lifespan = (2.0 *. sqrt (c *. lifespan)) +. 1.0

let uniform_t0_optimal ~c ~lifespan = sqrt (2.0 *. c *. lifespan)

let uniform_optimal_m ~c ~lifespan =
  int_of_float
    (Float.floor (sqrt ((2.0 *. lifespan /. c) +. 0.25) +. 0.5))

let geo_dec_t0_lower ~a ~c =
  let lna = log a in
  sqrt ((c *. c /. 4.0) +. (c /. lna)) +. (c /. 2.0)

let geo_dec_t0_upper ~a ~c =
  let lna = log a in
  c +. (1.0 /. lna)

(* t + a^{-t}/ln a = c + 1/ln a. Substituting u = t ln a and R = 1 + c ln a
   gives u + e^{-u} = R, whose positive solution is u = R + W0(-e^{-R}):
   the principal branch, because the positive root has u > R - 1, i.e.
   v = u - R in (-1, 0). *)
let geo_dec_t_optimal ~a ~c =
  if a <= 1.0 then
    invalid_arg "Closed_forms.geo_dec_t_optimal: requires a > 1";
  if c <= 0.0 then
    invalid_arg "Closed_forms.geo_dec_t_optimal: requires c > 0";
  let lna = log a in
  let r = 1.0 +. (c *. lna) in
  let v = Special.lambert_w0 (-.exp (-.r)) in
  (r +. v) /. lna

let geo_inc_next_period_optimal ~t_prev ~c =
  let arg = t_prev -. c +. 2.0 in
  if arg <= 1.0 then None else Some (Special.log2 arg)

let geo_inc_t0_estimate ~lifespan =
  if lifespan <= 1.0 then
    invalid_arg "Closed_forms.geo_inc_t0_estimate: lifespan must be > 1";
  let lg = Special.log2 lifespan in
  lifespan /. (lg *. lg)
