type point = { x : float; fx : float }

let invphi = (sqrt 5.0 -. 1.0) /. 2.0 (* 1/phi *)

let golden_section_min ?(tol = 1e-10) ?(max_iter = 200) f ~lo ~hi =
  if not (lo <= hi) then
    invalid_arg "Optimize.golden_section: requires lo <= hi";
  let a = ref lo and b = ref hi in
  let c = ref (!b -. (invphi *. (!b -. !a))) in
  let d = ref (!a +. (invphi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (invphi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (invphi *. (!b -. !a));
      fd := f !d
    end
  done;
  let x = 0.5 *. (!a +. !b) in
  { x; fx = f x }

let golden_section_max ?tol ?max_iter f ~lo ~hi =
  let p = golden_section_min ?tol ?max_iter (fun x -> -.f x) ~lo ~hi in
  { p with fx = -.p.fx }

(* Brent's parabolic-interpolation minimiser (Numerical Recipes form). *)
let brent_min ?(tol = 1e-10) ?(max_iter = 200) f ~lo ~hi =
  if not (lo <= hi) then invalid_arg "Optimize.brent: requires lo <= hi";
  let cgold = 0.3819660 in
  let zeps = 1e-18 in
  let a = ref lo and b = ref hi in
  let x = ref (lo +. (cgold *. (hi -. lo))) in
  let w = ref !x and v = ref !x in
  let fx = ref (f !x) in
  let fw = ref !fx and fv = ref !fx in
  let d = ref 0.0 and e = ref 0.0 in
  let iter = ref 0 in
  let finished = ref false in
  while (not !finished) && !iter < max_iter do
    incr iter;
    let xm = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. zeps in
    let tol2 = 2.0 *. tol1 in
    if Float.abs (!x -. xm) <= tol2 -. (0.5 *. (!b -. !a)) then finished := true
    else begin
      let use_golden = ref true in
      if Float.abs !e > tol1 then begin
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q = 2.0 *. (q -. r) in
        let p = if q > 0.0 then -.p else p in
        let q = Float.abs q in
        let etemp = !e in
        e := !d;
        if
          Float.abs p < Float.abs (0.5 *. q *. etemp)
          && p > q *. (!a -. !x)
          && p < q *. (!b -. !x)
        then begin
          d := p /. q;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := if xm >= !x then tol1 else -.tol1;
          use_golden := false
        end
      end;
      if !use_golden then begin
        e := (if !x >= xm then !a -. !x else !b -. !x);
        d := cgold *. !e
      end;
      let u =
        if Float.abs !d >= tol1 then !x +. !d
        else !x +. (if !d >= 0.0 then tol1 else -.tol1)
      in
      let fu = f u in
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w;
        fv := !fw;
        w := !x;
        fw := !fx;
        x := u;
        fx := fu
      end
      else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w;
          fv := !fw;
          w := u;
          fw := fu
        end
        else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  { x = !x; fx = !fx }

let brent_max ?tol ?max_iter f ~lo ~hi =
  let p = brent_min ?tol ?max_iter (fun x -> -.f x) ~lo ~hi in
  { p with fx = -.p.fx }

let grid_max f ~lo ~hi ~steps =
  if steps < 1 then invalid_arg "Optimize.grid_max: steps must be >= 1";
  if not (lo <= hi) then invalid_arg "Optimize.grid_max: requires lo <= hi";
  let h = (hi -. lo) /. float_of_int steps in
  let best = ref { x = lo; fx = f lo } in
  for i = 1 to steps do
    let x = lo +. (float_of_int i *. h) in
    let fx = f x in
    if fx > !best.fx then best := { x; fx }
  done;
  !best

let grid_then_refine ?tol f ~lo ~hi ~steps =
  let coarse = grid_max f ~lo ~hi ~steps in
  if lo = hi then coarse
  else begin
    let h = (hi -. lo) /. float_of_int steps in
    let a = Float.max lo (coarse.x -. h) in
    let b = Float.min hi (coarse.x +. h) in
    let refined = brent_max ?tol f ~lo:a ~hi:b in
    if refined.fx >= coarse.fx then refined else coarse
  end

let coordinate_ascent ?(tol = 1e-10) ?(max_sweeps = 200) ~f ~lower ~upper init =
  let n = Array.length init in
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Optimize.coordinate_ascent: dimension mismatch";
  Array.iteri
    (fun i lo ->
      if not (lo <= upper.(i)) then
        invalid_arg "Optimize.coordinate_ascent: empty box")
    lower;
  let x = Array.copy init in
  Array.iteri
    (fun i v -> x.(i) <- Float.min upper.(i) (Float.max lower.(i) v))
    init;
  let best = ref (f x) in
  let sweep = ref 0 in
  let improved = ref true in
  while !improved && !sweep < max_sweeps do
    incr sweep;
    improved := false;
    for i = 0 to n - 1 do
      let objective v =
        let saved = x.(i) in
        x.(i) <- v;
        let r = f x in
        x.(i) <- saved;
        r
      in
      if upper.(i) > lower.(i) then begin
        let p = grid_then_refine ~tol objective ~lo:lower.(i) ~hi:upper.(i) ~steps:48 in
        if p.fx > !best +. tol then begin
          x.(i) <- p.x;
          best := p.fx;
          improved := true
        end
      end
    done
  done;
  (x, !best)
