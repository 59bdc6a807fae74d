let ln2 = log 2.0

(* NaN-safe guards: [not (x > 0.0)] rejects NaN, where [x <= 0.0] would
   let it through. *)
let positive_finite x = x > 0.0 && Float.is_finite x

let uniform ~lifespan =
  if not (positive_finite lifespan) then
    invalid_arg "Families.uniform: lifespan must be finite and > 0";
  let l = lifespan in
  Life_function.make
    ~name:(Printf.sprintf "uniform(L=%g)" l)
    ~support:(Life_function.Bounded l)
    ~dp:(fun t -> if t < 0.0 || t > l then 0.0 else -1.0 /. l)
    ~inv:(fun u -> l *. (1.0 -. u))
    ~shape:Life_function.Linear
    (fun t -> 1.0 -. (t /. l))

let polynomial ~d ~lifespan =
  if d < 1 then invalid_arg "Families.polynomial: d must be >= 1";
  if not (positive_finite lifespan) then
    invalid_arg "Families.polynomial: lifespan must be finite and > 0";
  if d = 1 then uniform ~lifespan
  else begin
    let l = lifespan in
    let df = float_of_int d in
    Life_function.make
      ~name:(Printf.sprintf "polynomial(d=%d, L=%g)" d l)
      ~support:(Life_function.Bounded l)
      ~dp:(fun t ->
        if t < 0.0 || t > l then 0.0
        else -.df *. Float.pow (t /. l) (df -. 1.0) /. l)
      ~inv:(fun u -> l *. Float.pow (1.0 -. u) (1.0 /. df))
      ~shape:Life_function.Concave
      (fun t -> 1.0 -. Float.pow (t /. l) df)
  end

let geometric_decreasing ~a =
  if not (a > 1.0 && Float.is_finite a) then
    invalid_arg "Families.geometric_decreasing: requires finite a > 1";
  let lna = log a in
  Life_function.make
    ~name:(Printf.sprintf "geometric-decreasing(a=%g)" a)
    ~support:Life_function.Unbounded
    ~dp:(fun t -> -.lna *. exp (-.lna *. t))
    ~fused:(fun t pt ->
      let e = exp (-.lna *. t) in
      pt.Life_function.p <- e;
      pt.dp <- -.lna *. e)
    ~inv:(fun u -> -.log u /. lna)
    ~shape:Life_function.Convex
    (fun t -> exp (-.lna *. t))

let exponential ~rate =
  if not (positive_finite rate) then
    invalid_arg "Families.exponential: rate must be finite and > 0";
  Life_function.make
    ~name:(Printf.sprintf "exponential(rate=%g)" rate)
    ~support:Life_function.Unbounded
    ~dp:(fun t -> -.rate *. exp (-.rate *. t))
    ~fused:(fun t pt ->
      let e = exp (-.rate *. t) in
      pt.Life_function.p <- e;
      pt.dp <- -.rate *. e)
    ~inv:(fun u -> -.log u /. rate)
    ~shape:Life_function.Convex
    (fun t -> exp (-.rate *. t))

let geometric_increasing ~lifespan =
  if not (positive_finite lifespan) then
    invalid_arg
      "Families.geometric_increasing: lifespan must be finite and > 0";
  let l = lifespan in
  (* (2^L - 2^t)/(2^L - 1) = (1 - 2^{t-L})/(1 - 2^{-L}): stable for large L. *)
  let denom = -.Float.expm1 (-.l *. ln2) in
  let p t =
    if t >= l then 0.0 else -.Float.expm1 ((t -. l) *. ln2) /. denom
  in
  let dp t =
    if t < 0.0 || t > l then 0.0
    else -.ln2 *. exp ((t -. l) *. ln2) /. denom
  in
  let inv u = l +. (Float.log1p (-.u *. denom) /. ln2) in
  Life_function.make
    ~name:(Printf.sprintf "geometric-increasing(L=%g)" l)
    ~support:(Life_function.Bounded l) ~dp ~inv ~shape:Life_function.Concave
    p

let weibull ~shape ~scale =
  if not (positive_finite shape && positive_finite scale) then
    invalid_arg "Families.weibull: shape and scale must be finite and > 0";
  let sh = shape and sc = scale in
  (* log p = −(t/scale)^shape is concave for shape >= 1; shape = 1 stays
     Convex, which also gives the Thm 3.3 bound. *)
  let declared =
    if sh <= 1.0 then Life_function.Convex else Life_function.Log_concave
  in
  Life_function.make
    ~name:(Printf.sprintf "weibull(shape=%g, scale=%g)" sh sc)
    ~support:Life_function.Unbounded
    ~dp:(fun t ->
      if t <= 0.0 then
        if sh < 1.0 then neg_infinity
        else if Tol.exactly sh 1.0 then -1.0 /. sc
        else 0.0
      else
        let z = t /. sc in
        let zs = Float.pow z sh in
        -.sh /. t *. zs *. exp (-.zs))
    (* One pow and one exp where p and dp took two of each. *)
    ~fused:(fun t pt ->
      let zs = Float.pow (t /. sc) sh in
      let e = exp (-.zs) in
      pt.Life_function.p <- e;
      pt.dp <- -.sh /. t *. zs *. e)
    ~inv:(fun u -> sc *. Float.pow (-.log u) (1.0 /. sh))
    ~shape:declared
    (fun t -> if t <= 0.0 then 1.0 else exp (-.Float.pow (t /. sc) sh))

let power_law ~d =
  if not (positive_finite d) then
    invalid_arg "Families.power_law: d must be finite and > 0";
  Life_function.make
    ~name:(Printf.sprintf "power-law(d=%g)" d)
    ~support:Life_function.Unbounded
    ~dp:(fun t -> -.d *. Float.pow (t +. 1.0) (-.d -. 1.0))
    ~inv:(fun u -> Float.pow u (-1.0 /. d) -. 1.0)
    ~shape:Life_function.Convex
    (fun t -> Float.pow (t +. 1.0) (-.d))

let of_interpolant ~name ip =
  let invalid msg = raise (Life_function.Invalid_life_function (name ^ msg)) in
  let lo, hi = Interp.domain ip in
  if not (Tol.exactly lo 0.0) then
    invalid (Printf.sprintf ": interpolant domain must start at 0 (got %g)" lo);
  let inv = try Interp.inverse ip with Interp.Bad_grid m -> invalid (": " ^ m) in
  let p t = Special.smooth_clamp01 (Interp.eval ip t) in
  Life_function.make ~name
    ~support:(Life_function.Bounded hi)
    ~dp:(fun t ->
      if t < 0.0 || t > hi then 0.0
      else Float.min 0.0 (Interp.derivative ip t))
    ~fused:(fun t pt ->
      let v, d = Interp.eval_deriv ip t in
      pt.Life_function.p <- Special.smooth_clamp01 v;
      pt.dp <- Float.min 0.0 d)
    ~inv p

let scale_time ~factor lf =
  if not (positive_finite factor) then
    invalid_arg "Families.scale_time: factor must be finite and > 0";
  let support =
    match Life_function.support lf with
    | Life_function.Bounded l -> Life_function.Bounded (l *. factor)
    | Life_function.Unbounded -> Life_function.Unbounded
  in
  Life_function.make
    ~name:(Printf.sprintf "%s (time x%g)" (Life_function.name lf) factor)
    ~support
    ~dp:(fun t -> Life_function.deriv lf (t /. factor) /. factor)
    (* lf's own point at t / factor. It matches [dp] wherever t / factor
       lies inside lf's support: everywhere inside this support but
       within a rounding of its ends, where p is 1 or 0. *)
    ~fused:(fun t pt ->
      Life_function.eval_deriv lf (t /. factor) pt;
      pt.dp <- pt.dp /. factor)
    ~inv:(let inv = Life_function.inverse lf in fun u -> factor *. inv u)
    ~shape:(Life_function.shape lf)
    ~validate:false
    (fun t -> Life_function.eval lf (t /. factor))

let all_paper_scenarios ~c =
  if not (positive_finite c) then
    invalid_arg "Families.all_paper_scenarios: c must be finite and > 0";
  [
    ("uniform-risk", uniform ~lifespan:(100.0 *. c));
    ("polynomial-d2", polynomial ~d:2 ~lifespan:(100.0 *. c));
    ("polynomial-d3", polynomial ~d:3 ~lifespan:(100.0 *. c));
    ("geometric-decreasing", geometric_decreasing ~a:(exp (0.05 /. c)));
    ("geometric-increasing", geometric_increasing ~lifespan:(30.0 *. c));
  ]
