let adaptive_simpson ?(tol = 1e-10) ?(max_depth = 50) f ~lo ~hi =
  let simpson3 a fa b fb fm = (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb) in
  let rec go a fa b fb m fm whole tol depth =
    let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
    let flm = f lm and frm = f rm in
    let left = simpson3 a fa m fm flm in
    let right = simpson3 m fm b fb frm in
    let delta = left +. right -. whole in
    if depth <= 0 || Float.abs delta <= 15.0 *. tol then
      left +. right +. (delta /. 15.0)
    else
      go a fa m fm lm flm left (tol /. 2.0) (depth - 1)
      +. go m fm b fb rm frm right (tol /. 2.0) (depth - 1)
  in
  let fa = f lo and fb = f hi in
  let m = 0.5 *. (lo +. hi) in
  let fm = f m in
  go lo fa hi fb m fm (simpson3 lo fa hi fb fm) tol max_depth

let integrate_to_infinity ?(tol = 1e-12) f ~lo =
  let acc = Kahan.create () in
  let a = ref lo in
  let width = ref (Float.max 1.0 (Float.abs lo)) in
  let continue = ref true in
  let panels = ref 0 in
  while !continue && !panels < 200 do
    incr panels;
    let b = !a +. !width in
    let piece = adaptive_simpson ~tol:(tol /. 10.0) f ~lo:!a ~hi:b in
    Kahan.add acc piece;
    let total = Float.abs (Kahan.total acc) in
    if Float.abs piece <= tol *. Float.max 1.0 total then continue := false
    else begin
      a := b;
      width := !width *. 2.0
    end
  done;
  Kahan.total acc
