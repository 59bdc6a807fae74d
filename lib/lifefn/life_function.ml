
type support = Bounded of float | Unbounded
type shape = Concave | Convex | Linear | Log_concave | Unknown
type point = { mutable x : float; mutable p : float; mutable dp : float }

type t = {
  name : string;
  support : support;
  p : float -> float;
  dp : (float -> float) option;
  fused : (float -> point -> unit) option;
  inv : float -> float;
  shape : shape;
}

exception Invalid_life_function of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_life_function s)) fmt

(* Geometric search for the 1e-12 survival point: the first of 1, 2, 4,
   ... where p is at most 1e-12, else the last finite one, 2^1023, which
   [~refuse] refuses. *)
let raw_horizon ~refuse ~name support p =
  match support with
  | Bounded l -> l
  | Unbounded ->
      let t = ref 1.0 in
      let v = ref (p 1.0) in
      while !v > 1e-12 && Float.is_finite (2.0 *. !t) do
        t := !t *. 2.0;
        v := p !t
      done;
      if refuse && not (!v <= 1e-12) then
        invalid_arg
          (Printf.sprintf
             "Life_function.horizon: %s: p(%g) = %g, still above 1e-12 at \
              the largest finite doubling"
             name !t !v);
      !t

let validate_fn ~name ~support ?inv p =
  (match support with
  | Bounded l when not (l > 0.0 && Float.is_finite l) ->
      fail "%s: bounded lifespan must be finite and positive" name
  | Bounded _ | Unbounded -> ());
  let p0 = p 0.0 in
  if Float.abs (p0 -. 1.0) > 1e-9 then
    fail "%s: p(0) = %g, expected 1" name p0;
  let hi = raw_horizon ~refuse:false ~name support p in
  let samples = 128 in
  let prev = ref p0 in
  for i = 1 to samples do
    let t = float_of_int i /. float_of_int samples *. hi in
    let v = p t in
    if Float.is_nan v then fail "%s: p(%g) is NaN" name t;
    if v < -1e-9 || v > 1.0 +. 1e-9 then
      fail "%s: p(%g) = %g outside [0, 1]" name t v;
    if v > !prev +. 1e-9 then
      fail "%s: p increases near t = %g (%g -> %g)" name t !prev v;
    (match inv with
    | Some inv when v > 0.0 && v < 1.0 ->
        let back = p (inv v) in
        if not (Float.abs (back -. v) <= 1e-9) then
          fail "%s: p(inv %g) = %g, inverse disagrees with p" name v back
    | Some _ | None -> ());
    prev := v
  done

let eval t x =
  if x <= 0.0 then 1.0
  else
    match t.support with
    | Bounded l when x >= l -> 0.0
    | Bounded _ | Unbounded -> Float.max 0.0 (t.p x)

(* p⁻¹ u for a p given without one, as life_function.mli states; the
   tolerance grows to a few ulps of hi once those exceed 1e-12. *)
let numerical_inverse t u =
  let f x = eval t x -. u in
  let rec double lo hi k =
    if k < 200 && f hi > 0.0 then double hi (2.0 *. hi) (k + 1) else (lo, hi)
  in
  let lo, hi =
    match t.support with Bounded l -> (0.0, l) | Unbounded -> double 0.0 1.0 0
  in
  let tol = Float.max Rootfind.default_tol (4.0 *. epsilon_float *. hi) in
  match Rootfind.brent ~tol f ~lo ~hi with
  | r -> r.Rootfind.root
  | exception Rootfind.No_bracket _ -> if f hi > 0.0 then infinity else lo

let make ?dp ?fused ?inv ?(shape = Unknown) ?(validate = true) ~name ~support
    p =
  if Option.is_some fused && Option.is_none dp then
    invalid_arg "Life_function.make: ?fused needs the ?dp it agrees with";
  if validate then validate_fn ~name ~support ?inv p;
  let rec t = { name; support; p; dp; fused; inv = fallback; shape }
  and fallback u = numerical_inverse t u in
  match inv with Some inv -> { t with inv } | None -> t

let name t = t.name
let support t = t.support
let shape t = t.shape
let inverse t = t.inv

let deriv t x =
  match t.dp with
  | Some dp -> dp x
  | None ->
      let hi = match t.support with Bounded l -> l | Unbounded -> infinity in
      Diff.derivative_on_support ~lo:0.0 ~hi (eval t) x

let point () = { x = nan; p = nan; dp = nan }

(* Where [eval] clamps, p' is not taken: the support-aware difference
   raises beyond L, and eq. 3.6 never reads p' where p is 0 or 1. *)
let eval_deriv t x (pt : point) =
  (if x <= 0.0 then begin
     pt.p <- 1.0;
     pt.dp <- 0.0
   end
   else
     match (t.support, t.fused) with
     | Bounded l, _ when x >= l ->
         pt.p <- 0.0;
         pt.dp <- 0.0
     | (Bounded _ | Unbounded), Some f ->
         f x pt;
         pt.p <- Float.max 0.0 pt.p
     | (Bounded _ | Unbounded), None ->
         pt.p <- Float.max 0.0 (t.p x);
         pt.dp <- deriv t x);
  pt.x <- x

let horizon t = raw_horizon ~refuse:true ~name:t.name t.support t.p

(* Conditioning rescales p by a constant and shifts time, which keeps
   concavity and convexity, and adds a constant to log p, which keeps
   log-concavity; so the shape carries over. So does the inverse:
   p(elapsed + s) / p(elapsed) = u at s = p⁻¹(u · p(elapsed)) − elapsed.
   The fused closure reads p's own point at elapsed + s; it matches [dp]
   wherever that instant lies inside p's support, so everywhere the
   conditional survival is positive. *)
let condition t ~elapsed =
  if not (elapsed >= 0.0) then
    invalid_arg "Life_function.condition: elapsed must be >= 0";
  let pe = eval t elapsed in
  if pe <= 0.0 then None
  else
    let support =
      match t.support with
      | Bounded l -> Bounded (l -. elapsed)
      | Unbounded -> Unbounded
    in
    let inv = t.inv in
    Some
      {
        name = t.name ^ " | survived";
        support;
        p = (fun s -> eval t (elapsed +. s) /. pe);
        dp = Some (fun s -> deriv t (elapsed +. s) /. pe);
        fused =
          Some
            (fun s pt ->
              eval_deriv t (elapsed +. s) pt;
              pt.p <- pt.p /. pe;
              pt.dp <- pt.dp /. pe);
        inv = (fun u -> inv (u *. pe) -. elapsed);
        shape = t.shape;
      }

let mean_lifetime t =
  match t.support with
  | Bounded l -> Quadrature.adaptive_simpson (eval t) ~lo:0.0 ~hi:l
  | Unbounded -> Quadrature.integrate_to_infinity (eval t) ~lo:0.0

let quantile_time t ~q =
  if not (q > 0.0 && q < 1.0) then
    invalid_arg "Life_function.quantile_time: q must lie in (0, 1)";
  t.inv q

let classify_shape t =
  let samples = 256 in
  let hi = horizon t in
  (* Stay away from the support edges where one-sided noise dominates. *)
  let lo = 0.02 *. hi and span = 0.96 *. hi in
  let tol = 1e-7 in
  let has_pos = ref false and has_neg = ref false in
  for i = 0 to samples - 1 do
    let x = lo +. (float_of_int i /. float_of_int (samples - 1) *. span) in
    let s = Diff.second (eval t) ~h:(1e-4 *. Float.max 1.0 hi) x in
    if s > tol then has_pos := true;
    if s < -.tol then has_neg := true
  done;
  match (!has_pos, !has_neg) with
  | false, false -> Linear
  | true, false -> Convex
  | false, true -> Concave
  | true, true -> Unknown

let pp ppf t =
  let support_str =
    match t.support with
    | Bounded l -> Printf.sprintf "lifespan %g" l
    | Unbounded -> "unbounded"
  in
  let shape_str =
    match t.shape with
    | Concave -> "concave"
    | Convex -> "convex"
    | Linear -> "linear"
    | Log_concave -> "log-concave"
    | Unknown -> "unknown shape"
  in
  Format.fprintf ppf "%s (%s, %s)" t.name support_str shape_str
