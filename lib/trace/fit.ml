type fitted = {
  family : string;
  life : Life_function.t;
  sse : float;
  params : (string * float) list;
}

let check_durations name ds =
  if Array.length ds = 0 then invalid_arg (name ^ ": empty input");
  Array.iter
    (fun d ->
      if not (Float.is_finite d) || d <= 0.0 then
        invalid_arg (name ^ ": durations must be positive and finite"))
    ds

(* SSE of [lf] against the ECDF [steps]. Fits build the ECDF once and
   score every candidate against it: the build sorts the sample. *)
let sse_against_steps lf steps =
  let acc = Kahan.create () in
  Array.iter
    (fun (x, s) ->
      let d = Life_function.eval lf x -. s in
      Kahan.add acc (d *. d))
    steps;
  Kahan.total acc

let sse_against_ecdf lf ds = sse_against_steps lf (Stats.ecdf_survival ds)

let finish family life params steps =
  { family; life; sse = sse_against_steps life steps; params }

let exponential_mle ds =
  check_durations "Fit.exponential_mle" ds;
  let rate = 1.0 /. Stats.mean ds in
  finish "exponential"
    (Families.exponential ~rate)
    [ ("rate", rate) ]
    (Stats.ecdf_survival ds)

let uniform_fit ds =
  check_durations "Fit.uniform_fit" ds;
  let n = float_of_int (Array.length ds) in
  let mx = Array.fold_left Float.max ds.(0) ds in
  let l = mx *. (n +. 1.0) /. n in
  finish "uniform" (Families.uniform ~lifespan:l) [ ("lifespan", l) ]
    (Stats.ecdf_survival ds)

let weibull_mle ds =
  check_durations "Fit.weibull_mle" ds;
  let n = Array.length ds in
  let distinct = Array.exists (fun d -> d <> ds.(0)) ds in
  if n < 2 || not distinct then
    invalid_arg "Fit.weibull_mle: need >= 2 distinct durations";
  let logs = Array.map log ds in
  let mean_log = Stats.mean logs in
  (* Profile-likelihood equation for the shape k:
     g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0, increasing in k. *)
  let g k =
    let num = Kahan.create () and den = Kahan.create () in
    Array.iteri
      (fun i d ->
        let xk = Float.pow d k in
        Kahan.add num (xk *. logs.(i));
        Kahan.add den xk)
      ds;
    (Kahan.total num /. Kahan.total den) -. (1.0 /. k) -. mean_log
  in
  let lo, hi = Rootfind.expand_bracket g ~lo:0.05 ~hi:5.0 in
  let r = Rootfind.brent ~tol:1e-10 ~max_iter:200 g ~lo ~hi in
  let shape = r.Rootfind.root in
  let scale =
    let acc = Kahan.create () in
    Array.iter (fun d -> Kahan.add acc (Float.pow d shape)) ds;
    Float.pow (Kahan.total acc /. float_of_int n) (1.0 /. shape)
  in
  finish "weibull"
    (Families.weibull ~shape ~scale)
    [ ("shape", shape); ("scale", scale) ]
    (Stats.ecdf_survival ds)

let geometric_increasing_fit ds =
  check_durations "Fit.geometric_increasing_fit" ds;
  let mx = Array.fold_left Float.max ds.(0) ds in
  let steps = Stats.ecdf_survival ds in
  let objective l =
    if l <= mx then infinity
    else sse_against_steps (Families.geometric_increasing ~lifespan:l) steps
  in
  let best =
    Optimize.golden_section_min objective ~lo:(mx *. 1.0001) ~hi:(mx *. 4.0)
  in
  let l = best.Optimize.x in
  finish "geometric-increasing"
    (Families.geometric_increasing ~lifespan:l)
    [ ("lifespan", l) ]
    steps

let polynomial_fit ds =
  check_durations "Fit.polynomial_fit" ds;
  let mx = Array.fold_left Float.max ds.(0) ds in
  let steps = Stats.ecdf_survival ds in
  let candidate d =
    let objective l =
      if l <= mx then infinity
      else sse_against_steps (Families.polynomial ~d ~lifespan:l) steps
    in
    let best =
      Optimize.golden_section_min objective ~lo:(mx *. 1.0001) ~hi:(mx *. 4.0)
    in
    (d, best.Optimize.x, best.Optimize.fx)
  in
  let d, l, _ =
    List.fold_left
      (fun (bd, bl, bs) dcand ->
        let d, l, s = candidate dcand in
        if s < bs then (d, l, s) else (bd, bl, bs))
      (candidate 1)
      [ 2; 3; 4; 5 ]
  in
  finish
    (Printf.sprintf "polynomial(d=%d)" d)
    (Families.polynomial ~d ~lifespan:l)
    [ ("d", float_of_int d); ("lifespan", l) ]
    steps

let best_fit ds =
  check_durations "Fit.best_fit" ds;
  if Array.length ds < 2 then
    invalid_arg "Fit.best_fit: need at least 2 observations";
  let candidates =
    [
      exponential_mle ds;
      uniform_fit ds;
      polynomial_fit ds;
      geometric_increasing_fit ds;
    ]
    @ (try [ weibull_mle ds ] with Invalid_argument _ -> [])
  in
  List.fold_left
    (fun best c -> if c.sse < best.sse then c else best)
    (List.hd candidates) (List.tl candidates)
