let require_nonempty name a =
  if Array.length a = 0 then
    invalid_arg (Printf.sprintf "Stats.%s: empty input" name)

(* The survival estimators collapse ties by advancing while
   [sorted.(j) = x], which is false for NaN, so a non-finite time is
   rejected before it can stall them. *)
let require_finite_time name t =
  if not (Float.is_finite t) then
    invalid_arg (Printf.sprintf "Stats.%s: times must be finite" name)

let mean a =
  require_nonempty "mean" a;
  Kahan.sum a /. float_of_int (Array.length a)

let tally_mean_variance ~counts ~value =
  let n =
    Array.fold_left
      (fun n m ->
        if m < 0 then invalid_arg "Stats.tally_mean_variance: negative count";
        n + m)
      0 counts
  in
  if n < 2 then
    invalid_arg "Stats.tally_mean_variance: need at least 2 samples";
  (* Each populated slot adds its count times its value's term: the
     mean, then the squared deviations from it. *)
  let weighted f =
    let acc = Kahan.create () in
    Array.iteri
      (fun j m -> if m > 0 then Kahan.add acc (float_of_int m *. f (value j)))
      counts;
    Kahan.total acc
  in
  let mean = weighted Fun.id /. float_of_int n in
  let variance =
    weighted (fun x ->
        let d = x -. mean in
        d *. d)
    /. float_of_int (n - 1)
  in
  (mean, variance)

let ci95 ~mean ~variance ~n =
  if n < 2 then invalid_arg "Stats.ci95: need at least 2 samples";
  let se = sqrt variance /. sqrt (float_of_int n) in
  (mean -. (1.96 *. se), mean +. (1.96 *. se))

let quantiles a ~qs =
  require_nonempty "quantile" a;
  if List.exists (fun q -> q < 0.0 || q > 1.0) qs then
    invalid_arg "Stats.quantile: q must lie in [0, 1]";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  List.map
    (fun q ->
      if n = 1 then sorted.(0)
      else begin
        let pos = q *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor pos) in
        let hi = Int.min (lo + 1) (n - 1) in
        let frac = pos -. float_of_int lo in
        sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
      end)
    qs

let quantile a ~q = List.hd (quantiles a ~qs:[ q ])

let ecdf_survival samples =
  require_nonempty "ecdf_survival" samples;
  Array.iter (require_finite_time "ecdf_survival") samples;
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let nf = float_of_int n in
  (* Collapse ties: survival after x = fraction of samples strictly > x. *)
  let points = ref [] in
  let i = ref 0 in
  while !i < n do
    let x = sorted.(!i) in
    let j = ref !i in
    while !j < n && sorted.(!j) = x do
      incr j
    done;
    points := (x, float_of_int (n - !j) /. nf) :: !points;
    i := !j
  done;
  Array.of_list (List.rev !points)

let kaplan_meier observations =
  if Array.length observations = 0 then
    invalid_arg "Stats.kaplan_meier: empty input";
  Array.iter (fun (t, _) -> require_finite_time "kaplan_meier" t) observations;
  let obs = Array.copy observations in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) obs;
  let n = Array.length obs in
  let at_risk = ref n in
  let survival = ref 1.0 in
  let steps = ref [] in
  let i = ref 0 in
  while !i < n do
    let t, _ = obs.(!i) in
    (* Gather everyone with this exact time: events first, then censored. *)
    let events = ref 0 and total = ref 0 in
    let j = ref !i in
    while !j < n && fst obs.(!j) = t do
      incr total;
      if snd obs.(!j) then incr events;
      incr j
    done;
    if !events > 0 then begin
      survival :=
        !survival
        *. (1.0 -. (float_of_int !events /. float_of_int !at_risk));
      steps := (t, !survival) :: !steps
    end;
    at_risk := !at_risk - !total;
    i := !j
  done;
  Array.of_list (List.rev !steps)

let kaplan_meier_greenwood observations =
  if Array.length observations = 0 then
    invalid_arg "Stats.kaplan_meier_greenwood: empty input";
  Array.iter
    (fun (t, _) -> require_finite_time "kaplan_meier_greenwood" t)
    observations;
  let obs = Array.copy observations in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) obs;
  let n = Array.length obs in
  let at_risk = ref n in
  let survival = ref 1.0 in
  let greenwood_sum = Kahan.create () in
  let steps = ref [] in
  let i = ref 0 in
  while !i < n do
    let t, _ = obs.(!i) in
    let events = ref 0 and total = ref 0 in
    let j = ref !i in
    while !j < n && fst obs.(!j) = t do
      incr total;
      if snd obs.(!j) then incr events;
      incr j
    done;
    if !events > 0 then begin
      let d = float_of_int !events and r = float_of_int !at_risk in
      survival := !survival *. (1.0 -. (d /. r));
      if r -. d > 0.0 then Kahan.add greenwood_sum (d /. (r *. (r -. d)));
      let variance = !survival *. !survival *. Kahan.total greenwood_sum in
      steps := (t, !survival, sqrt (Float.max 0.0 variance)) :: !steps
    end;
    at_risk := !at_risk - !total;
    i := !j
  done;
  Array.of_list (List.rev !steps)

let paired_check name predicted actual =
  let n = Array.length predicted in
  if n <> Array.length actual then
    invalid_arg (Printf.sprintf "Stats.%s: length mismatch" name);
  if n = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty input" name);
  n

let rmse ~predicted ~actual =
  let n = paired_check "rmse" predicted actual in
  let acc = Kahan.create () in
  for i = 0 to n - 1 do
    let d = predicted.(i) -. actual.(i) in
    Kahan.add acc (d *. d)
  done;
  sqrt (Kahan.total acc /. float_of_int n)
