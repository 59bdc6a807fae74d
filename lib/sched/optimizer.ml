type t = {
  schedule : Schedule.t;
  expected_work : float;
  m : int;
  sweeps : int;
}

let expected_work_of_vector lf ~c ts =
  let acc = Kahan.create () in
  let elapsed = Kahan.create () in
  Array.iter
    (fun ti ->
      let ti = Float.max 0.0 ti in
      Kahan.add elapsed ti;
      let w = Schedule.positive_sub ti c in
      if w > 0.0 then
        Kahan.add acc (w *. Life_function.eval lf (Kahan.total elapsed)))
    ts;
  Kahan.total acc

(* Deterministic multi-start: expected work has local optima in which a
   prefix of periods already exhausts a bounded lifespan and the rest sit
   dead beyond it, so we ascend from several qualitatively different
   splits — flat over the horizon, flat over half of it, arithmetic
   decreasing, and geometric decreasing — and keep the best. *)
let seeds ~horizon ~m =
  let mf = float_of_int m in
  let flat frac = Array.make m (frac *. horizon /. mf) in
  let arithmetic =
    let total = mf *. (mf +. 1.0) /. 2.0 in
    Array.init m (fun i -> float_of_int (m - i) /. total *. horizon)
  in
  let geometric =
    let total = 2.0 -. Float.pow 2.0 (-.float_of_int (m - 1)) in
    Array.init m (fun i -> Float.pow 2.0 (-.float_of_int i) /. total *. horizon)
  in
  [ flat 1.0; flat 0.5; arithmetic; geometric ]

let n_seeds = 4 (* length of [seeds] *)

let ascend_seed lf ~c ~horizon ~m ~tol init =
  let eps = 1e-9 in
  let lower = Array.make m eps in
  let upper = Array.make m horizon in
  let objective ts = expected_work_of_vector lf ~c ts in
  Optimize.coordinate_ascent ~tol ~f:objective ~lower ~upper init

let best_candidate candidates =
  List.fold_left
    (fun (bx, bew) (x, ew) -> if ew > bew then (x, ew) else (bx, bew))
    (List.hd candidates) (List.tl candidates)

let ascend lf ~c ~horizon ~m ~tol =
  best_candidate
    (List.map (ascend_seed lf ~c ~horizon ~m ~tol) (seeds ~horizon ~m))

(* Speculative block: evaluate every (m, seed) ascent for [count]
   consecutive period counts starting at [m0] as one flat job grid, then
   reduce each m's seed candidates in seed order — the exact fold
   [ascend] performs, so each per-m result is bit-identical to the
   serial one. Ascents are pure float computations from their seed
   vector; which domain runs which job cannot change a bit. *)
let ascend_block pool lf ~c ~horizon ~tol ~m0 ~count =
  let jobs = count * n_seeds in
  let slots = Array.make jobs None in
  Domain_pool.parallel_for pool ~chunks:jobs (fun j ->
      let m = m0 + (j / n_seeds) and si = j mod n_seeds in
      let init = List.nth (seeds ~horizon ~m) si in
      slots.(j) <- Some (ascend_seed lf ~c ~horizon ~m ~tol init));
  Array.init count (fun i ->
      best_candidate
        (List.init n_seeds (fun si -> Option.get slots.((i * n_seeds) + si))))

let optimal_schedule ?(obs = Obs.disabled) ?pool ?m_max ?(patience = 3)
    ?(tol = 1e-10) lf ~c =
  if c <= 0.0 then invalid_arg "Optimizer.optimal_schedule: c must be > 0";
  let horizon = Life_function.horizon lf in
  if c >= horizon then
    invalid_arg "Optimizer.optimal_schedule: c >= horizon";
  let m_cap =
    match m_max with
    | Some m -> m
    | None -> begin
        match Life_function.shape lf with
        | Life_function.Concave | Life_function.Linear ->
            Bounds.max_periods_concave ~c ~lifespan:horizon
        | Life_function.Convex | Life_function.Log_concave
        | Life_function.Unknown ->
            64
      end
  in
  let spanner = Obs.span_recorder obs in
  (match spanner with
  | Some r -> Obs.Span.enter r "optimizer.optimal_schedule"
  | None -> ());
  let best = ref None in
  let stale = ref 0 in
  let m = ref 1 in
  let sweeps = ref 0 in
  (* Replay of the serial improvement rule on the result for count [mi];
     shared by both execution paths below. *)
  let consider mi (xs, ew) =
    incr sweeps;
    let improved =
      match !best with
      | Some (_, best_ew, _) -> ew > best_ew +. tol
      | None -> true
    in
    if improved then begin
      best := Some (xs, ew, mi);
      stale := 0
    end
    else incr stale
  in
  (match pool with
  | Some p when Domain_pool.domains p > 1 ->
      (* Speculate up to [patience - stale] consecutive counts per block:
         the serial scan provably evaluates every one of them before it
         can stop (stale resets on improvement and the block is no longer
         than the remaining patience), so replaying the blocks in m-order
         yields the identical best schedule and the identical sweep
         count — speculation buys concurrency, never extra sweeps. *)
      while !m <= m_cap && !stale < patience do
        let m0 = !m in
        let count = Int.min (m_cap - m0 + 1) (patience - !stale) in
        let results =
          match spanner with
          | None -> ascend_block p lf ~c ~horizon ~tol ~m0 ~count
          | Some r ->
              Obs.Span.record
                ~attrs:
                  [ ("m_first", Jsonx.Int m0); ("count", Jsonx.Int count) ]
                r "optimizer.block"
                (fun () -> ascend_block p lf ~c ~horizon ~tol ~m0 ~count)
        in
        Array.iteri (fun i result -> consider (m0 + i) result) results;
        m := m0 + count
      done
  | Some _ | None ->
      while !m <= m_cap && !stale < patience do
        let result =
          match spanner with
          | None -> ascend lf ~c ~horizon ~m:!m ~tol
          | Some r ->
              Obs.Span.record ~attrs:[ ("m", Jsonx.Int !m) ] r
                "optimizer.sweep" (fun () -> ascend lf ~c ~horizon ~m:!m ~tol)
        in
        consider !m result;
        incr m
      done);
  match !best with
  | None -> assert false (* m = 1 always evaluated *)
  | Some (xs, _, m) ->
      (* Clean the raw vector: clamp positives, drop zeros, normalise. *)
      let positive = Array.of_list (List.filter (fun t -> t > 1e-9) (Array.to_list xs)) in
      let schedule =
        if Array.length positive = 0 then
          Schedule.of_periods [| Float.min horizon (Float.max c 1.0) |]
        else
          Schedule.productive_normal_form ~c (Schedule.of_periods positive)
      in
      let r =
        {
          schedule;
          expected_work = Schedule.expected_work ~c lf schedule;
          m;
          sweeps = !sweeps;
        }
      in
      (match spanner with
      | Some rec_ ->
          Obs.Span.exit rec_
            ~attrs:
              [ ("m", Jsonx.Int m); ("sweeps", Jsonx.Int !sweeps) ]
      | None -> ());
      if Obs.instrumented obs then
        Obs.emit obs
          (Obs.Event.Plan_computed
             {
               source = "optimizer";
               t0 = Schedule.period schedule 0;
               periods = Schedule.num_periods schedule;
               expected_work = r.expected_work;
             });
      r
