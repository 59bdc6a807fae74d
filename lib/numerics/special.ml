let inv_e = exp (-1.0)

(* Halley iteration for w·e^w = x from a branch-appropriate seed. Guards:
   stop once the residual is negligible, and never divide by a vanishing
   or non-finite denominator (which occurs exactly at the w = -1 branch
   point, where the seed is already the answer). *)
let halley_w x w0 =
  let w = ref w0 in
  (try
     for _ = 1 to 60 do
       let ew = exp !w in
       let f = (!w *. ew) -. x in
       if Float.abs f <= 1e-17 *. Float.max 1.0 (Float.abs x) then raise Exit;
       let w1 = !w +. 1.0 in
       if not (Tol.exactly w1 0.0) then begin
         let denom = (ew *. w1) -. ((!w +. 2.0) *. f /. (2.0 *. w1)) in
         if (not (Tol.exactly denom 0.0)) && Float.is_finite denom then
           w := !w -. (f /. denom)
       end
     done
   with Exit -> ());
  !w

let lambert_w0 x =
  if x < -.inv_e -. 1e-12 then
    invalid_arg "Special.lambert_w0: argument below -1/e";
  let x = Float.max x (-.inv_e) in
  if Tol.exactly x 0.0 then 0.0
  else begin
    (* Seed by region: the branch-point series is accurate only near
       -1/e; log(1+x) is a serviceable mid-range seed (exact at x = 0,
       within ~25% up to x ~ 10); the log-log asymptotic needs log x
       comfortably positive or it explodes (log log x -> -inf at x = 1). *)
    let seed =
      if x < -0.25 then begin
        let p = sqrt (2.0 *. ((Float.exp 1.0 *. x) +. 1.0)) in
        -1.0 +. p -. (p *. p /. 3.0) +. (11.0 /. 72.0 *. p *. p *. p)
      end
      else if x < 10.0 then Float.log1p x
      else begin
        let l1 = log x in
        let l2 = log l1 in
        l1 -. l2 +. (l2 /. l1)
      end
    in
    halley_w x seed
  end

let log2 x = log x /. log 2.0

let smooth_clamp01 x =
  if Float.is_nan x then 0.0 else Float.min 1.0 (Float.max 0.0 x)
