type result = {
  schedule : Schedule.t;
  t0 : float;
  expected_work : float;
  bracket : float * float;
  stop : Recurrence.stop_reason;
}

let evaluate ?(obs = Obs.disabled) lf ~c ~t0 =
  Obs.span obs "plan.evaluate" (fun () ->
      let g = Recurrence.generate ~obs lf ~c ~t0 in
      let ew =
        Obs.span obs "plan.expected_work" (fun () ->
            Schedule.expected_work ~c lf g.Recurrence.schedule)
      in
      (g, ew))

let plan_with_t0 lf ~c ~t0 =
  let g, ew = evaluate lf ~c ~t0 in
  {
    schedule = g.Recurrence.schedule;
    t0;
    expected_work = ew;
    bracket = (t0, t0);
    stop = g.Recurrence.stop;
  }

(* Grid resolution of the t0 searches that cannot assume unimodality. *)
let grid_steps = 128

(* On a certified shape E(t0) is unimodal over the bracket
   (test_guideline checks this on a seeded corpus). A trace-fitted
   (Unknown) p can make E multimodal. *)
let certified lf =
  match Life_function.shape lf with
  | Life_function.Concave | Life_function.Convex | Life_function.Linear
  | Life_function.Log_concave ->
      true
  | Life_function.Unknown -> false

(* The t0 search over the bracket: golden-section pins a unimodal
   maximum in 44 iterations; a p that may be multimodal gets a grid
   before the refine. *)
let search lf objective ~lo ~hi =
  if certified lf then
    Optimize.golden_section_max ~tol:(1e-9 *. (hi -. lo)) objective ~lo ~hi
  else Optimize.grid_then_refine objective ~lo ~hi ~steps:grid_steps

let plan ?(obs = Obs.disabled) lf ~c =
  let compute () =
    (* The guideline's three phases, each its own span: Thm 3.2/3.3
       bracketing, the t0 search (whose evaluations span themselves), and
       the final regeneration at the winner. A candidate is scored in one
       pass of the recurrence without building its schedule; the score
       equals [evaluate]'s E bit for bit, so only the winner is built. *)
    let lo, hi =
      Obs.span obs "plan.bracket" (fun () -> Bounds.bracket lf ~c)
    in
    let objective t0 =
      Obs.span obs "plan.evaluate" (fun () ->
          Recurrence.expected_work_at ~obs lf ~c ~t0)
    in
    let best =
      Obs.span obs "plan.search" (fun () -> search lf objective ~lo ~hi)
    in
    let g, ew = evaluate ~obs lf ~c ~t0:best.Optimize.x in
    {
      schedule = g.Recurrence.schedule;
      t0 = best.Optimize.x;
      expected_work = ew;
      bracket = (lo, hi);
      stop = g.Recurrence.stop;
    }
  in
  if not (Obs.instrumented obs) then compute ()
  else begin
    let t_start = Obs_clock.now () in
    let r = Obs.span obs "guideline.plan" compute in
    let elapsed = Obs_clock.elapsed_since t_start in
    Obs.emit obs
      (Obs.Event.Plan_computed
         {
           source = "guideline";
           t0 = r.t0;
           periods = Schedule.num_periods r.schedule;
           expected_work = r.expected_work;
           elapsed;
         });
    r
  end

let plan_batch ?(obs = Obs.disabled) ?pool scenarios =
  match scenarios with
  | [] -> []
  | _ :: _ ->
      let scen = Array.of_list scenarios in
      let n = Array.length scen in
      (* Dedup identical scenarios (same life function physically, same
         overhead bitwise) before the fan-out: each canonical scenario
         plans once and the result fans back out in input order. The
         unique list keeps first-occurrence order, so the chunk grid —
         and with it bit-identity across domain counts (DESIGN §10) —
         depends only on the scenario list, never on the assignment. *)
      let canon = Array.make n 0 in
      let uniq_rev = ref [] in
      let n_uniq = ref 0 in
      for i = 0 to n - 1 do
        let lf, c = scen.(i) in
        let rec find = function
          | [] -> None
          | j :: rest ->
              let lf', c' = scen.(j) in
              if lf == lf' && Tol.exactly c c' then Some canon.(j)
              else find rest
        in
        match find !uniq_rev with
        | Some u -> canon.(i) <- u
        | None ->
            canon.(i) <- !n_uniq;
            incr n_uniq;
            uniq_rev := i :: !uniq_rev
      done;
      let uniq = Array.of_list (List.rev !uniq_rev) in
      let m = Array.length uniq in
      let slots = Array.make m None in
      (* One unique scenario per chunk: plans are pure in (lf, c), so any
         domain assignment yields the same slot contents; observability
         goes to per-unique-scenario children gathered in that order. *)
      let kids = Obs_fork.scatter obs ~n:m in
      Obs.span obs "guideline.plan_batch" (fun () ->
          Domain_pool.run ?pool ~chunks:m (fun u ->
              let lf, c = scen.(uniq.(u)) in
              slots.(u) <-
                Some (plan ~obs:(Obs_fork.child kids u) lf ~c));
          Obs_fork.gather obs kids);
      List.init n (fun i ->
          match slots.(canon.(i)) with
          | Some r -> r
          | None -> assert false (* every chunk filled its slot *))

let plan_risk_averse ~lambda_ lf ~c =
  if lambda_ < 0.0 then
    invalid_arg "Guideline.plan_risk_averse: lambda_ must be >= 0";
  let lo, hi = Bounds.bracket lf ~c in
  let score t0 =
    let g = Recurrence.generate lf ~c ~t0 in
    let d = Work_distribution.of_schedule lf ~c g.Recurrence.schedule in
    d.Work_distribution.mean -. (lambda_ *. d.Work_distribution.stddev)
  in
  let best = Optimize.grid_then_refine score ~lo ~hi ~steps:grid_steps in
  let g, ew = evaluate lf ~c ~t0:best.Optimize.x in
  {
    schedule = g.Recurrence.schedule;
    t0 = best.Optimize.x;
    expected_work = ew;
    bracket = (lo, hi);
    stop = g.Recurrence.stop;
  }

(* Relative offset of the two neighbours a seed is scored against. *)
let certificate_step = 1e-6

(* Whether [seed] is the t0 of [plan cond ~c] to within
   [certificate_step], for a [cond] of certified shape: E(t0) is then
   unimodal over the bracket, so a seed whose two neighbours lie in the
   bracket and score no higher has the maximum within a step of it.
   Three E passes, against the search's 48 and a regeneration. *)
let certifies cond ~c seed =
  seed > c
  &&
  let below = seed *. (1.0 -. certificate_step)
  and above = seed *. (1.0 +. certificate_step) in
  let lo, hi = Bounds.bracket cond ~c in
  lo <= below && above <= hi
  &&
  let e t0 = Recurrence.expected_work_at cond ~c ~t0 in
  let e_seed = e seed in
  e_seed > 0.0 && e_seed >= e below && e_seed >= e above

(* The first period of the plan against the conditional [cond]: [seed]
   when it is certified, else the full plan's t0. [None] when no
   productive period fits: the remaining horizon (the lifespan left, or
   for unbounded support the time until the conditional survival drops
   below 1e-12) is <= c, or the plan has no productive first period. *)
let first_period cond ~c ~seed =
  if Life_function.horizon cond <= c then None
  else
    match seed with
    | Some t when certifies cond ~c t -> seed
    | Some _ | None ->
        let r = plan cond ~c in
        if r.expected_work > 0.0 && r.t0 > c then Some r.t0 else None

let next_period_online lf ~c ~elapsed =
  if elapsed < 0.0 then
    invalid_arg "Guideline.next_period_online: elapsed must be >= 0";
  Option.bind (Life_function.condition lf ~elapsed) (fun cond ->
      first_period cond ~c ~seed:None)

let progressive lf ~c =
  let unimodal = certified lf in
  (* The plan of p, made at the first episode start; and the answer of
     the previous call. *)
  let start = lazy (next_period_online lf ~c ~elapsed:0.0) in
  let last = ref None in
  fun ~elapsed ->
    let answer =
      if Float.equal elapsed 0.0 then Lazy.force start
      else
        Option.bind (Life_function.condition lf ~elapsed) (fun cond ->
            (* Eq. 3.6's step from the previous period: on an
               uninterrupted episode, the static plan's continuation,
               which Bellman's principle makes the conditional optimum. *)
            let seed =
              match !last with
              | Some prev when unimodal && elapsed >= prev ->
                  Recurrence.next_period lf ~c ~prev_period:prev
                    ~prev_end:elapsed
              | Some _ | None -> None
            in
            first_period cond ~c ~seed)
    in
    last := answer;
    answer
