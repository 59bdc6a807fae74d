exception Bad_grid of string

type kind =
  | Linear
  | Pchip of float array (* knot derivatives d.(i) *)

type t = { xs : float array; ys : float array; kind : kind }

let validate ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then
    raise (Bad_grid "Interp: xs and ys lengths differ");
  if n < 2 then raise (Bad_grid "Interp: need at least 2 points");
  for i = 0 to n - 2 do
    if not (xs.(i) < xs.(i + 1)) then
      raise
        (Bad_grid
           (Printf.sprintf "Interp: grid not strictly increasing at index %d"
              i))
  done

let linear ~xs ~ys =
  validate ~xs ~ys;
  { xs = Array.copy xs; ys = Array.copy ys; kind = Linear }

(* Fritsch–Carlson (1980) monotone cubic Hermite tangents. *)
let pchip_tangents xs ys =
  let n = Array.length xs in
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let delta = Array.init (n - 1) (fun i -> (ys.(i + 1) -. ys.(i)) /. h.(i)) in
  let d = Array.make n 0.0 in
  if n = 2 then begin
    d.(0) <- delta.(0);
    d.(1) <- delta.(0)
  end
  else begin
    (* Interior tangents: weighted harmonic mean when slopes agree in sign. *)
    for i = 1 to n - 2 do
      if delta.(i - 1) *. delta.(i) <= 0.0 then d.(i) <- 0.0
      else begin
        let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
        let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
        d.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
      end
    done;
    (* One-sided endpoint tangents (shape-preserving form). *)
    let endpoint h0 h1 d0 d1 =
      let t = ((((2.0 *. h0) +. h1) *. d0) -. (h0 *. d1)) /. (h0 +. h1) in
      if t *. d0 <= 0.0 then 0.0
      else if d0 *. d1 <= 0.0 && Float.abs t > 3.0 *. Float.abs d0 then
        3.0 *. d0
      else t
    in
    d.(0) <- endpoint h.(0) h.(1) delta.(0) delta.(1);
    d.(n - 1) <- endpoint h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  d

let pchip ~xs ~ys =
  validate ~xs ~ys;
  let xs = Array.copy xs and ys = Array.copy ys in
  { xs; ys; kind = Pchip (pchip_tangents xs ys) }

(* Index of the segment containing x: largest i with xs.(i) <= x, clamped to
   [0, n-2] so that boundary segments extrapolate. *)
let segment t x =
  let n = Array.length t.xs in
  if x <= t.xs.(0) then 0
  else if x >= t.xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

(* The value and the slope on segment [i], which [segment] located. *)
let value_in t i x =
  let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
  let y0 = t.ys.(i) and y1 = t.ys.(i + 1) in
  match t.kind with
  | Linear -> y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  | Pchip d ->
      let h = x1 -. x0 in
      let s = (x -. x0) /. h in
      let s2 = s *. s in
      let s3 = s2 *. s in
      let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
      let h10 = s3 -. (2.0 *. s2) +. s in
      let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
      let h11 = s3 -. s2 in
      (h00 *. y0) +. (h10 *. h *. d.(i)) +. (h01 *. y1) +. (h11 *. h *. d.(i + 1))

let slope_in t i x =
  let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
  let y0 = t.ys.(i) and y1 = t.ys.(i + 1) in
  match t.kind with
  | Linear -> (y1 -. y0) /. (x1 -. x0)
  | Pchip d ->
      let h = x1 -. x0 in
      let s = (x -. x0) /. h in
      let s2 = s *. s in
      let dh00 = ((6.0 *. s2) -. (6.0 *. s)) /. h in
      let dh10 = ((3.0 *. s2) -. (4.0 *. s) +. 1.0) /. h in
      let dh01 = ((-6.0 *. s2) +. (6.0 *. s)) /. h in
      let dh11 = ((3.0 *. s2) -. (2.0 *. s)) /. h in
      (dh00 *. y0) +. (dh10 *. h *. d.(i)) +. (dh01 *. y1)
      +. (dh11 *. h *. d.(i + 1))

let eval t x = value_in t (segment t x) x
let derivative t x = slope_in t (segment t x) x

let eval_deriv t x =
  let i = segment t x in
  (value_in t i x, slope_in t i x)

let inverse t =
  let xs = t.xs and ys = t.ys in
  let n = Array.length xs in
  for i = 1 to n - 1 do
    if ys.(i) > ys.(i - 1) then
      raise (Bad_grid (Printf.sprintf "Interp.inverse: knot %d rises" i))
  done;
  fun y ->
    if ys.(0) <= y then xs.(0)
    else if ys.(n - 1) > y then xs.(n - 1)
    else begin
      (* The crossing piece i: ys.(i) > y >= ys.(i + 1). *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if ys.(mid) <= y then hi := mid else lo := mid
      done;
      let i = !lo and y0 = ys.(!lo) and y1 = ys.(!hi) in
      let h = xs.(i + 1) -. xs.(i) and s = ref ((y0 -. y) /. (y0 -. y1)) in
      (match t.kind with
      | Linear -> ()
      | Pchip d ->
          (* The piece minus y, a cubic in s = (x - xs.(i)) / h, falls from
             y0 - y > 0 to y1 - y < 0 on [0, 1]: Newton from the chord's
             root, bisecting when a step would leave the bracket [a, b]. *)
          let m0 = h *. d.(i) and m1 = h *. d.(i + 1) and dy = y1 -. y0 in
          let c2 = (3.0 *. dy) -. (2.0 *. m0) -. m1 in
          let c3 = m0 +. m1 -. (2.0 *. dy) in
          let a = ref 0.0 and b = ref 1.0 and k = ref 0 and go = ref true in
          while !go do
            incr k;
            let x = !s in
            let f = y0 -. y +. (x *. (m0 +. (x *. (c2 +. (x *. c3))))) in
            if Float.abs f <= 1e-16 || !k > 100 then go := false
            else begin
              if f > 0.0 then a := x else b := x;
              let df = m0 +. (x *. ((2.0 *. c2) +. (3.0 *. c3 *. x))) in
              let next = x -. (f /. df) in
              s := if next > !a && next < !b then next else 0.5 *. (!a +. !b);
              go := Float.abs (!s -. x) > 1e-14
            end
          done);
      if Float.equal y1 y then xs.(i + 1) else xs.(i) +. (!s *. h)
    end

let domain t = (t.xs.(0), t.xs.(Array.length t.xs - 1))

let knots t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ys.(i)))
