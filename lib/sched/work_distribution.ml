type t = {
  outcomes : (float * float) array;
  mean : float;
  variance : float;
  stddev : float;
}

let of_schedule lf ~c s =
  if c < 0.0 then invalid_arg "Work_distribution.of_schedule: c must be >= 0";
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  (* Cumulative banked work after each completed period. *)
  let cum = Array.make n 0.0 in
  let acc = Kahan.create () in
  Array.iteri
    (fun i t ->
      Kahan.add acc (Schedule.positive_sub t c);
      cum.(i) <- Kahan.total acc)
    periods;
  (* Outcome probabilities: reclaim in (T_k, T_{k+1}] yields W_k; reclaim
     before T_0 yields 0; surviving past T_{m-1} yields W_{m-1}. Merge
     equal-work neighbours (unproductive periods). *)
  let raw = ref [] in
  let p_at i = Life_function.eval lf ends.(i) in
  let push w pr = if pr > 1e-15 then raw := (w, pr) :: !raw in
  push 0.0 (1.0 -. p_at 0);
  for k = 0 to n - 2 do
    push cum.(k) (p_at k -. p_at (k + 1))
  done;
  push cum.(n - 1) (p_at (n - 1));
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (w, pr) ->
      let cur = Option.value (Hashtbl.find_opt merged w) ~default:0.0 in
      Hashtbl.replace merged w (cur +. pr))
    !raw;
  let outcomes =
    Hashtbl.fold (fun w pr l -> (w, pr) :: l) merged []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> Array.of_list
  in
  let mean_acc = Kahan.create () in
  Array.iter (fun (w, pr) -> Kahan.add mean_acc (w *. pr)) outcomes;
  let mean = Kahan.total mean_acc in
  let var_acc = Kahan.create () in
  Array.iter
    (fun (w, pr) ->
      let d = w -. mean in
      Kahan.add var_acc (pr *. d *. d))
    outcomes;
  let variance = Float.max 0.0 (Kahan.total var_acc) in
  { outcomes; mean; variance; stddev = sqrt variance }

let prob_at_least d w =
  Array.fold_left
    (fun acc (x, pr) -> if x >= w then acc +. pr else acc)
    0.0 d.outcomes

let quantile d ~q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Work_distribution.quantile: q must lie in [0, 1]";
  let acc = Kahan.create () in
  let result = ref None in
  Array.iter
    (fun (w, pr) ->
      Kahan.add acc pr;
      if !result = None && Kahan.total acc >= q -. 1e-12 then result := Some w)
    d.outcomes;
  match !result with
  | Some w -> w
  | None -> fst d.outcomes.(Array.length d.outcomes - 1)

let prob_zero d =
  Array.fold_left
    (fun acc (w, pr) -> if w <= 1e-12 then acc +. pr else acc)
    0.0 d.outcomes
