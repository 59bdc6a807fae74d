type reason =
  | Negative_margin of { max_margin : float }
  | Unbounded_work of { tail_ratio : float }
  | Heavy_tail of { tail_ratio : float }

type verdict =
  | Admissible of { witness : float; margin : float }
  | Inadmissible of reason

let margin lf ~c t =
  Life_function.eval lf t +. ((t -. c) *. Life_function.deriv lf t)

(* Tail-weight analysis: integrate p over doubling panels starting where p
   has decayed to ~0.01 and study the ratios of consecutive panel
   contributions. For a polynomial tail t^{-d} the ratio converges to
   2^{1-d}; for exponential-type tails it rushes to 0; for a divergent
   integral it sits at (or above) 1. Returns (median_ratio, stable) where
   [stable] says the trailing ratios neither decay toward zero nor drift. *)
let tail_profile lf =
  let start =
    try Life_function.quantile_time lf ~q:0.01 with Invalid_argument _ -> 1.0
  in
  let start = Float.max start 1.0 in
  let panels = 24 in
  let ratios = ref [] in
  let prev = ref None in
  let a = ref start in
  for _ = 1 to panels do
    let b = 2.0 *. !a in
    let piece =
      Quadrature.adaptive_simpson ~tol:1e-12 (Life_function.eval lf) ~lo:!a
        ~hi:b
    in
    (match !prev with
    | Some p when p > 0.0 && piece >= 0.0 -> ratios := (piece /. p) :: !ratios
    | Some _ | None -> ());
    prev := Some piece;
    a := b
  done;
  match !ratios with
  | [] -> (0.0, false)
  | newest_first ->
      let last8 = List.filteri (fun i _ -> i < 8) newest_first in
      let sorted = List.sort Float.compare last8 in
      let median = List.nth sorted (List.length sorted / 2) in
      (* Stability: the newest ratio has not collapsed relative to the
         median of the trailing window. *)
      let newest = List.hd newest_first in
      let stable = median > 0.0 && newest >= 0.5 *. median in
      (median, stable)

let test ?(samples = 2048) lf ~c =
  if not (c > 0.0) then invalid_arg "Admissibility.test: c must be > 0";
  let hi = Life_function.horizon lf in
  if c >= hi then invalid_arg "Admissibility.test: c >= horizon";
  let g = margin lf ~c in
  (* Log-spaced scan of (c, hi) for the maximal margin and its witness. *)
  let lo = c *. (1.0 +. 1e-9) in
  let ratio = hi /. lo in
  let best_t = ref lo and best_g = ref (g lo) in
  for i = 1 to samples - 1 do
    let t =
      lo *. Float.pow ratio (float_of_int i /. float_of_int (samples - 1))
    in
    let v = g t in
    if v > !best_g then begin
      best_g := v;
      best_t := t
    end
  done;
  let refined =
    Optimize.golden_section_max g
      ~lo:(Float.max lo (!best_t /. 2.0))
      ~hi:(Float.min hi (!best_t *. 2.0))
  in
  let best_t, best_g =
    if refined.Optimize.fx > !best_g then
      (refined.Optimize.x, refined.Optimize.fx)
    else (!best_t, !best_g)
  in
  if best_g < 0.0 then Inadmissible (Negative_margin { max_margin = best_g })
  else begin
    match Life_function.support lf with
    | Life_function.Bounded _ ->
        (* Compactness: finite horizon, bounded period counts, continuous
           E — an optimal schedule always exists. *)
        Admissible { witness = best_t; margin = best_g }
    | Life_function.Unbounded ->
        let tail_ratio, stable = tail_profile lf in
        if tail_ratio >= 0.98 then
          Inadmissible (Unbounded_work { tail_ratio })
        else if stable && tail_ratio > 0.02 then
          Inadmissible (Heavy_tail { tail_ratio })
        else Admissible { witness = best_t; margin = best_g }
  end

let is_admissible ?samples lf ~c =
  match test ?samples lf ~c with
  | Admissible _ -> true
  | Inadmissible _ -> false
