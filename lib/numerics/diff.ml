let base_step x h =
  match h with
  | Some h -> h
  | None ->
      (* cbrt(eps) balances truncation vs roundoff for central differences *)
      6e-6 *. Float.max 1.0 (Float.abs x)

let central ?h f x =
  let h = base_step x h in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let forward ?h f x =
  let h = base_step x h in
  (f (x +. h) -. f x) /. h

let backward ?h f x =
  let h = base_step x h in
  (f x -. f (x -. h)) /. h

let second ?h f x =
  let h =
    match h with
    | Some h -> h
    | None -> 1e-4 *. Float.max 1.0 (Float.abs x)
  in
  (f (x +. h) -. (2.0 *. f x) +. f (x -. h)) /. (h *. h)

let derivative_on_support ~lo ~hi f x =
  if x < lo || x > hi then
    invalid_arg "Diff.derivative_on_support: point outside support";
  let scale = Float.max 1.0 (Float.abs x) in
  let h = 6e-6 *. scale in
  let room_left = x -. lo in
  let room_right = hi -. x in
  if room_left >= h && room_right >= h then central ~h f x
  else if room_right >= 2.0 *. h || room_left < room_right then
    let h = Float.min h (Float.max 1e-12 (room_right /. 2.0)) in
    forward ~h f x
  else
    let h = Float.min h (Float.max 1e-12 (room_left /. 2.0)) in
    backward ~h f x
