type result = {
  schedule : Schedule.t;
  t0 : float;
  expected_work : float;
  bracket : float * float;
  stop : Recurrence.stop_reason;
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

(* Whether E rises past a scored t0. Along eq. 3.6 every partial
   ∂E/∂t_j is G, so G > 0 says it does and G <= 0 that it falls, an
   exact 0 included: G reaches 0⁻ at every change of period count on the
   exhausted side, and is 0 at the clamp. Where a cut leaves out a last
   term that still counts, the cut moves E, not G. A tail cut falls: a
   longer t0 only coarsens a schedule that already spans the lifespan. A
   period cap rises: a longer t0 spans more of the lifespan the capped
   schedule leaves out. Only an inadmissible p, such as a power law,
   meets such a cut inside its bracket. *)
let rises (s : Recurrence.score) =
  let counts = s.last_term > 1e-9 *. s.work in
  match s.stop with
  | Recurrence.Exhausted_support | Recurrence.Unproductive -> s.slope > 0.0
  | Recurrence.Tail_negligible -> s.slope > 0.0 && not counts
  | Recurrence.Period_cap -> s.slope > 0.0 || counts

(* The t0 search over the bracket. On a certified shape, E's maximum is
   the + → − crossing of [rises], or a bracket end. Bisection on that
   sign halves the bracket 34 times, to 1e-10 of its width: near a
   repelling fixed point (geo-dec) E(t0) is a tent whose sides fall
   ~0.2 of E per unit t0, so a 1e-9 bracket can miss by 1e-9 of E. Only
   the sign is read, so every plan scores the same number of t0s; a
   search that reads G's size (Brent) needs fewer on average, but G is a
   sawtooth of period-count changes near the crossing, and Brent's count
   ranged from 14 to 37 over geo-dec rates within 3% of each other. An
   end is scored only when the halving closes onto it, which is where E
   is monotone.

   The answer is the best E among every t0 scored. Where E is flat at
   its maximum (uniform), t0s ~1e-6 apart score the same E to 1e-12, and
   rounding would pick among them; so of the t0s within 1e-12 of the
   best E, the latest scored where E falls wins, else the latest scored:
   the nearest the crossing, on the side whose schedule does not end in
   a period <= c that carries no work. A p that may be multimodal gets a
   grid before a refine on E. *)
let search lf score ~lo ~hi =
  if not (certified lf) then
    Optimize.grid_then_refine
      (fun t0 -> (score t0).Recurrence.work)
      ~lo ~hi ~steps:grid_steps
  else begin
    (* Every scored t0 with its E and whether E rises there, the latest
       first. *)
    let scored = ref [] in
    let rises_at t0 =
      let s = score t0 in
      let r = rises s in
      scored := ({ Optimize.x = t0; fx = s.Recurrence.work }, r) :: !scored;
      r
    in
    let tol = 1e-10 *. (hi -. lo) in
    (* E rises at [a] unless it is [lo], and falls at [b] unless it is
       [hi]. A bracket far from 0 can reach adjacent floats before
       [tol]; the halving stops there too. *)
    let rec halve a b =
      let m = a +. (0.5 *. (b -. a)) in
      if b -. a > tol && a < m && m < b then
        if rises_at m then halve m b else halve a m
      else begin
        if Float.equal a lo then ignore (rises_at lo : bool);
        if Float.equal b hi && hi > lo then ignore (rises_at hi : bool)
      end
    in
    halve lo hi;
    let top =
      List.fold_left
        (fun m ((p : Optimize.point), _) -> if p.fx > m then p.fx else m)
        neg_infinity !scored
    in
    let ties =
      List.filter
        (fun ((p : Optimize.point), _) ->
          p.fx >= top -. (1e-12 *. Float.abs top))
        !scored
    in
    match (List.find_opt (fun (_, r) -> not r) ties, ties) with
    | Some (p, _), _ | None, (p, _) :: _ -> p
    | None, [] -> { Optimize.x = lo; fx = neg_infinity }
  end

(* The searched t0 and the bracket, with no schedule built. *)
let best_t0 ?(obs = Obs.disabled) lf ~c =
  let lo, hi = Obs.span obs "plan.bracket" (fun () -> Bounds.bracket lf ~c) in
  let score t0 =
    Obs.span obs "plan.evaluate" (fun () ->
        Recurrence.score ~obs lf ~c ~t0)
  in
  (Obs.span obs "plan.search" (fun () -> search lf score ~lo ~hi), (lo, hi))

(* Cor 5.2/5.3: an optimal schedule for a concave (or linear) p of lifespan
   L has fewer than ceil(sqrt(2L/c + 1/4) + 1/2) periods. Where that bound
   passes the recurrence's period cap, the cap would cut the plan short,
   and near the float limit the bracket itself degenerates, so refuse such
   a p before bracketing. Out-of-range c is left to the bracket's own
   guard and message. *)
let admit lf ~c =
  match (Life_function.shape lf, Life_function.support lf) with
  | (Life_function.Concave | Life_function.Linear), Life_function.Bounded l
    when c > 0.0 && c < l ->
      let bound = Bounds.max_periods_concave ~c ~lifespan:l in
      if bound > Recurrence.default_max_periods then
        invalid_arg
          (Printf.sprintf
             "Guideline.plan: at L/c = %g, Cor 5.3 allows a plan that the \
              %d-period cap could cut short"
             (l /. c) Recurrence.default_max_periods)
  | _, _ -> ()

let plan ?(obs = Obs.disabled) lf ~c =
  admit lf ~c;
  let compute () =
    (* The guideline's three phases, each its own span: Thm 3.2/3.3
       bracketing, the t0 search (whose evaluations span themselves), and
       the final regeneration at the winner. A candidate is scored in one
       pass of the recurrence without building its schedule; the score
       equals [Schedule.expected_work] of the schedule [generate] builds,
       bit for bit, so only the winner is built, and its E is the
       search's. *)
    let best, (lo, hi) = best_t0 ~obs lf ~c in
    (* Only a bracket collapsed onto the end of the support scores
       nothing: its t0 is a period that ends where p is 0. *)
    if not (best.Optimize.fx > 0.0) then
      invalid_arg
        (Printf.sprintf
           "Guideline.plan: no t0 in the bracket [%g, %g] scores expected \
            work > 0"
           lo hi);
    let g =
      Obs.span obs "plan.evaluate" (fun () ->
          Recurrence.generate ~obs lf ~c ~t0:best.Optimize.x)
    in
    {
      schedule = g.Recurrence.schedule;
      t0 = best.Optimize.x;
      expected_work = best.Optimize.fx;
      bracket = (lo, hi);
      stop = g.Recurrence.stop;
    }
  in
  if not (Obs.instrumented obs) then compute ()
  else begin
    let r = Obs.span obs "guideline.plan" compute in
    Obs.emit obs
      (Obs.Event.Plan_computed
         {
           source = "guideline";
           t0 = r.t0;
           periods = Schedule.num_periods r.schedule;
           expected_work = r.expected_work;
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

(* Relative offset of the two neighbours a seed is scored against. *)
let certificate_step = 1e-6

(* Whether [seed] is the t0 of [plan cond ~c] to within
   [certificate_step], for a [cond] of certified shape: E(t0) is then
   unimodal over the bracket, so a seed whose two neighbours lie in the
   bracket and score no higher has the maximum within a step of it.
   Three E passes, against the search's 35. *)
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
   when it is certified, else the searched t0, whose schedule is not
   built. [None] when no productive period fits: the remaining horizon
   (the lifespan left, or for unbounded support the time until the
   conditional survival drops below 1e-12) is <= c, or no t0 scores a
   productive first period. [plan]'s refusal is never reached here. *)
let first_period cond ~c ~seed =
  if Life_function.horizon cond <= c then None
  else
    match seed with
    | Some t when certifies cond ~c t -> seed
    | Some _ | None ->
        let best, _ = best_t0 cond ~c in
        if best.Optimize.fx > 0.0 && best.Optimize.x > c then
          Some best.Optimize.x
        else None

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
