type t = {
  schedule : Schedule.t;
  ratio : float;
  grace : float;
  horizon : float;
}

let work_if_killed_at s ~c t =
  let { Schedule.periods; ends } = s in
  let acc = Kahan.create () in
  (try
     Array.iteri
       (fun i e ->
         if e <= t then Kahan.add acc (Schedule.positive_sub periods.(i) c)
         else raise Exit)
       ends
   with Exit -> ());
  Kahan.total acc

(* The ratio W_S(t)/(t - c) is piecewise decreasing in t between
   completions (numerator constant, denominator growing), so the infimum
   over [grace, horizon] is attained at t = grace, just before each later
   completion, and at the horizon. "Just before T_k" compares the work
   banked strictly before T_k against an omniscient run to that instant.
   Those instants rise with k, so one running sum [banked] over the
   periods ending by each of them makes the adds [work_if_killed_at]
   would make there, in the same order: the same bits in one pass. *)
let competitive_ratio s ~c ~grace ~horizon =
  if not (grace > c) then
    invalid_arg "Worst_case.competitive_ratio: grace must exceed c";
  if not (horizon >= grace) then
    invalid_arg "Worst_case.competitive_ratio: horizon must be >= grace";
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  let denom t = Float.max 1e-300 (t -. c) in
  let worst = ref (work_if_killed_at s ~c grace /. denom grace) in
  let banked = Kahan.create () and next = ref 0 in
  for k = 0 to n - 1 do
    if ends.(k) > grace && ends.(k) <= horizon then begin
      let before = (ends.(k) *. (1.0 -. 1e-12)) -. 1e-12 in
      while !next < n && ends.(!next) <= before do
        Kahan.add banked (Schedule.positive_sub periods.(!next) c);
        incr next
      done;
      worst := Float.min !worst (Kahan.total banked /. denom ends.(k))
    end
  done;
  worst := Float.min !worst (work_if_killed_at s ~c horizon /. denom horizon);
  Float.max 0.0 !worst

let geometric_schedule ~horizon ~t0 ~factor =
  if t0 <= 0.0 then invalid_arg "Worst_case.geometric_schedule: t0 must be > 0";
  if factor < 1.0 then
    invalid_arg "Worst_case.geometric_schedule: factor must be >= 1";
  if horizon < t0 then
    invalid_arg "Worst_case.geometric_schedule: horizon < t0";
  let rev = ref [] and count = ref 0 in
  let elapsed = ref 0.0 in
  let t = ref t0 in
  let continue = ref true in
  while !continue do
    if !elapsed +. !t >= horizon then begin
      let last = horizon -. !elapsed in
      if last > 0.0 then rev := last :: !rev;
      continue := false
    end
    else begin
      rev := !t :: !rev;
      incr count;
      (* Running end-time for a geometric schedule; the final period is
         clamped to [horizon -. elapsed], so drift cannot overrun. *)
      (elapsed := !elapsed +. !t) [@lint.allow "R2"];
      t := !t *. factor;
      if !count > 10_000 then continue := false
    end
  done;
  Schedule.of_periods (Array.of_list (List.rev !rev))

let plan ?grace ~c ~horizon () =
  let grace = match grace with Some g -> g | None -> 5.0 *. c in
  if not (grace > c) then invalid_arg "Worst_case.plan: grace must exceed c";
  if not (horizon > grace) then
    invalid_arg "Worst_case.plan: horizon must exceed grace";
  let eval t0 factor =
    if t0 <= 0.0 || t0 > horizon then neg_infinity
    else
      competitive_ratio
        (geometric_schedule ~horizon ~t0 ~factor)
        ~c ~grace ~horizon
  in
  (* Outer grid over the growth factor, inner 1-D refinement over t0. The
     first period must complete within the grace window to bank anything
     by then, so t0 ranges over (c, grace]. *)
  let best = ref (neg_infinity, grace, 1.5) in
  List.iter
    (fun factor ->
      let p =
        Optimize.grid_then_refine
          (fun t0 -> eval t0 factor)
          ~lo:(c *. 1.001) ~hi:grace ~steps:128
      in
      let r, _, _ = !best in
      if p.Optimize.fx > r then best := (p.Optimize.fx, p.Optimize.x, factor))
    [ 1.0; 1.1; 1.2; 1.3; 1.4; 1.5; 1.6; 1.8; 2.0; 2.2; 2.5; 3.0; 4.0 ];
  let ratio0, t0, factor = !best in
  let seed = geometric_schedule ~horizon ~t0 ~factor in
  (* Coordinate ascent on the raw periods; the objective is piecewise
     smooth in each period so the grid+refine line search applies. *)
  let m = Schedule.num_periods seed in
  let objective ts =
    if Array.exists (fun t -> t <= 0.0) ts then neg_infinity
    else competitive_ratio (Schedule.of_periods ts) ~c ~grace ~horizon
  in
  let lower = Array.make m (c /. 100.0) in
  let upper = Array.make m horizon in
  let xs, r =
    Optimize.coordinate_ascent ~f:objective ~lower ~upper
      (Schedule.periods seed)
  in
  let schedule, ratio =
    if r > ratio0 then (Schedule.of_periods xs, r) else (seed, ratio0)
  in
  { schedule; ratio; grace; horizon }
