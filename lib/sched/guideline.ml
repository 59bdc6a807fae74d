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

(* The t0 search over the bracket. On a certified shape E(t0) is
   unimodal over the bracket (test_guideline checks this on a seeded
   corpus), so golden-section pins the maximum in 44 iterations. A
   trace-fitted (Unknown) p can make E multimodal, so it gets a grid
   before the refine. *)
let search lf objective ~lo ~hi =
  match Life_function.shape lf with
  | Life_function.Concave | Life_function.Convex | Life_function.Linear
  | Life_function.Log_concave ->
      Optimize.golden_section_max ~tol:(1e-9 *. (hi -. lo)) objective ~lo ~hi
  | Life_function.Unknown ->
      Optimize.grid_then_refine objective ~lo ~hi ~steps:grid_steps

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
    Obs.incr obs "plan.guideline_calls";
    Obs.observe obs "plan.guideline_seconds" elapsed;
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

let plan_batch ?(obs = Obs.disabled) ?pool ?domains scenarios =
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
      let meter = Obs.metrics obs in
      let accounting = Option.is_some meter || Option.is_some pool in
      Obs.span obs "guideline.plan_batch" (fun () ->
          Domain_pool.run ?pool ?domains ?metrics:meter ~chunks:m (fun u ->
              let lf, c = scen.(uniq.(u)) in
              slots.(u) <-
                Some (plan ~obs:(Obs_fork.child kids u) lf ~c));
          let merge_t0 = if accounting then Obs_clock.now () else 0.0 in
          Obs_fork.gather obs kids;
          if accounting then
            Domain_pool.note_merge ?pool ?metrics:meter
              ~seconds:(Obs_clock.elapsed_since merge_t0) ());
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

let next_period_online lf ~c ~elapsed =
  if elapsed < 0.0 then
    invalid_arg "Guideline.next_period_online: elapsed must be >= 0";
  let p_elapsed = Life_function.eval lf elapsed in
  if p_elapsed <= 0.0 then None
  else begin
    (* Conditional life function given survival to [elapsed]. Shape is
       inherited: conditioning rescales p by a constant and shifts time,
       which preserves concavity and convexity, and adds a constant to
       log p, which preserves log-concavity. So is the inverse:
       p(elapsed + s) / p(elapsed) = u at s = p⁻¹(u · p(elapsed)) − elapsed.
       The fused closure reads p's own point at elapsed + s; it matches
       [dp] wherever that instant lies inside p's support, so everywhere
       the conditional survival is positive. *)
    let support =
      match Life_function.support lf with
      | Life_function.Bounded l -> Life_function.Bounded (l -. elapsed)
      | Life_function.Unbounded -> Life_function.Unbounded
    in
    let conditional =
      Life_function.make
        ~name:(Life_function.name lf ^ " | survived")
        ~support
        ~dp:(fun s -> Life_function.deriv lf (elapsed +. s) /. p_elapsed)
        ~fused:(fun s pt ->
          Life_function.eval_deriv lf (elapsed +. s) pt;
          pt.p <- pt.p /. p_elapsed;
          pt.dp <- pt.dp /. p_elapsed)
        ~inv:
          (let inv = Life_function.inverse lf in
           fun u -> inv (u *. p_elapsed) -. elapsed)
        ~shape:(Life_function.shape lf)
        ~validate:false
        (fun s -> Life_function.eval lf (elapsed +. s) /. p_elapsed)
    in
    (* No productive period fits once the remaining horizon is <= c: the
       lifespan left, or for unbounded support, the time until the
       conditional survival drops below 1e-12. *)
    if Life_function.horizon conditional <= c then None
    else
      let r = plan conditional ~c in
      if r.expected_work > 0.0 && r.t0 > c then Some r.t0 else None
  end
