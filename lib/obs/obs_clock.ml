(* The monotonic high-water mark is process-wide by design: every span
   reads one clock. *)
[@@@lint.allow "R14"]

let high_water = ref 0.0

let now () =
  let t = Unix.gettimeofday () in
  if t > !high_water then high_water := t;
  !high_water

let elapsed_since t0 = Float.max 0.0 (now () -. t0)
