type cluster = {
  t0_low : float;
  t0_high : float;
  best_t0 : float;
  best_value : float;
}

type probe = {
  clusters : cluster list;
  max_value : float;
  samples : int;
  rel_tol : float;
}

let probe ?(samples = 512) ?(rel_tol = 1e-4) lf ~c =
  if samples < 8 then invalid_arg "Uniqueness.probe: samples must be >= 8";
  let lo, hi = Bounds.bracket lf ~c in
  let value t0 = Recurrence.expected_work_at lf ~c ~t0 in
  let xs =
    Array.init samples (fun i ->
        lo +. (float_of_int i /. float_of_int (samples - 1) *. (hi -. lo)))
  in
  let vs = Array.map value xs in
  let max_value = Array.fold_left Float.max neg_infinity vs in
  let threshold = (1.0 -. rel_tol) *. max_value in
  (* Sweep the grid, merging consecutive above-threshold points. *)
  let clusters = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some cl -> begin
        clusters := cl :: !clusters;
        current := None
      end
    | None -> ()
  in
  Array.iteri
    (fun i v ->
      if v >= threshold then begin
        match !current with
        | None ->
            current :=
              Some { t0_low = xs.(i); t0_high = xs.(i); best_t0 = xs.(i); best_value = v }
        | Some cl ->
            let best_t0, best_value =
              if v > cl.best_value then (xs.(i), v)
              else (cl.best_t0, cl.best_value)
            in
            current := Some { cl with t0_high = xs.(i); best_t0; best_value }
      end
      else flush ())
    vs;
  flush ();
  { clusters = List.rev !clusters; max_value; samples; rel_tol }

let unique ?samples ?rel_tol lf ~c =
  match (probe ?samples ?rel_tol lf ~c).clusters with
  | [ _ ] -> true
  | _ -> false
