type outcome = { root : float; residual : float; iterations : int }

exception No_bracket of string

let default_tol = 1e-12

let same_sign a b = (a > 0.0 && b > 0.0) || (a < 0.0 && b < 0.0)

let bisect ?(tol = default_tol) ?(max_iter = 200) f ~lo ~hi =
  let flo = f lo and fhi = f hi in
  if Tol.exactly flo 0.0 then { root = lo; residual = 0.0; iterations = 0 }
  else if Tol.exactly fhi 0.0 then { root = hi; residual = 0.0; iterations = 0 }
  else if same_sign flo fhi then
    raise
      (No_bracket
         (Printf.sprintf "Rootfind.bisect: f(%g)=%g and f(%g)=%g agree in sign"
            lo flo hi fhi))
  else begin
    let lo = ref lo and hi = ref hi and flo = ref flo in
    let iter = ref 0 in
    while !hi -. !lo > tol && !iter < max_iter do
      incr iter;
      let mid = 0.5 *. (!lo +. !hi) in
      let fmid = f mid in
      if Tol.exactly fmid 0.0 then begin
        lo := mid;
        hi := mid
      end
      else if same_sign !flo fmid then begin
        lo := mid;
        flo := fmid
      end
      else hi := mid
    done;
    let root = 0.5 *. (!lo +. !hi) in
    { root; residual = f root; iterations = !iter }
  end

(* Brent's method, following the classic Brent (1973) organization:
   [b] is the current best root estimate, [a] the previous iterate, and
   [c] chosen so that f(b) and f(c) have opposite signs. *)
let brent ?(tol = default_tol) ?(max_iter = 200) f ~lo ~hi =
  let fa = f lo and fb = f hi in
  if Tol.exactly fa 0.0 then { root = lo; residual = 0.0; iterations = 0 }
  else if Tol.exactly fb 0.0 then { root = hi; residual = 0.0; iterations = 0 }
  else if same_sign fa fb then
    raise
      (No_bracket
         (Printf.sprintf "Rootfind.brent: f(%g)=%g and f(%g)=%g agree in sign"
            lo fa hi fb))
  else begin
    let a = ref lo and b = ref hi and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let iter = ref 0 in
    let result = ref None in
    while !result = None && !iter < max_iter do
      incr iter;
      if Tol.exactly !fb 0.0 || Float.abs (!b -. !a) < tol then
        result := Some { root = !b; residual = !fb; iterations = !iter }
      else begin
        let s =
          if !fa <> !fc && !fb <> !fc then
            (* inverse quadratic interpolation *)
            (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
            +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
            +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
          else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
        in
        let lo_guard = ((3.0 *. !a) +. !b) /. 4.0 in
        let cond1 =
          not
            ((s > Float.min lo_guard !b && s < Float.max lo_guard !b)
            || (s < Float.min lo_guard !b && s > Float.max lo_guard !b))
        in
        let cond2 = !mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.0 in
        let cond3 =
          (not !mflag) && Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.0
        in
        let cond4 = !mflag && Float.abs (!b -. !c) < tol in
        let cond5 = (not !mflag) && Float.abs (!c -. !d) < tol in
        let s =
          if cond1 || cond2 || cond3 || cond4 || cond5 then begin
            mflag := true;
            0.5 *. (!a +. !b)
          end
          else begin
            mflag := false;
            s
          end
        in
        let fs = f s in
        d := !c;
        c := !b;
        fc := !fb;
        if same_sign !fa fs then begin
          a := s;
          fa := fs
        end
        else begin
          b := s;
          fb := fs
        end;
        if Float.abs !fa < Float.abs !fb then begin
          let t = !a in
          a := !b;
          b := t;
          let t = !fa in
          fa := !fb;
          fb := t
        end
      end
    done;
    match !result with
    | Some r -> r
    | None -> { root = !b; residual = !fb; iterations = !iter }
  end

let expand_bracket ?(grow = 1.6) ?(max_iter = 60) f ~lo ~hi =
  if not (lo < hi) then
    invalid_arg "Rootfind.expand_bracket: requires lo < hi";
  let lo = ref lo and hi = ref hi in
  let flo = ref (f !lo) and fhi = ref (f !hi) in
  let iter = ref 0 in
  while same_sign !flo !fhi && !iter < max_iter do
    incr iter;
    let width = !hi -. !lo in
    if Float.abs !flo < Float.abs !fhi then begin
      lo := !lo -. (grow *. width);
      flo := f !lo
    end
    else begin
      (* Geometric bracket expansion, not a running sum: each step is a
         fresh O(width) displacement, so compensation buys nothing. *)
      (hi := !hi +. (grow *. width)) [@lint.allow "R2"];
      fhi := f !hi
    end
  done;
  if same_sign !flo !fhi then
    raise
      (No_bracket
         (Printf.sprintf "Rootfind.expand_bracket: no sign change in [%g, %g]"
            !lo !hi))
  else (!lo, !hi)
