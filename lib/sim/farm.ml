type policy = {
  policy_name : string;
  fresh_episode : Life_function.t -> c:float -> (elapsed:float -> float option);
}

let guideline_policy =
  {
    policy_name = "guideline";
    fresh_episode =
      (fun lf ~c ->
        let periods =
          Schedule.periods (Guideline.plan lf ~c).Guideline.schedule
        in
        let idx = ref 0 in
        fun ~elapsed ->
          (* Each episode replays the schedule from its first period. *)
          if Float.equal elapsed 0.0 then idx := 0;
          if !idx >= Array.length periods then None
          else begin
            let t = periods.(!idx) in
            incr idx;
            Some t
          end);
  }

let adaptive_policy =
  {
    policy_name = "adaptive-conditional";
    fresh_episode = Guideline.progressive;
  }

let greedy_policy =
  {
    policy_name = "greedy";
    fresh_episode =
      (fun lf ~c -> fun ~elapsed -> Greedy.first_period lf ~c ~elapsed);
  }

let fixed_chunk_policy ~chunk =
  if chunk <= 0.0 then
    invalid_arg "Farm.fixed_chunk_policy: chunk must be > 0";
  {
    policy_name = Printf.sprintf "fixed-chunk(%g)" chunk;
    fresh_episode =
      (fun lf ~c ->
        ignore c;
        let horizon = Life_function.horizon lf in
        fun ~elapsed -> if elapsed >= horizon then None else Some chunk);
  }

type workstation_config = {
  ws_life : Life_function.t;
  ws_presence_mean : float;
}

type config = {
  c : float;
  total_work : float;
  workstations : workstation_config list;
  policy : policy;
  max_time : float;
}

type ws_stats = {
  ws_id : int;
  work_done : float;
  work_lost : float;
  overhead : float;
  episodes : int;
  periods_completed : int;
  periods_killed : int;
}

type report = {
  finished : bool;
  makespan : float;
  pool_remaining : float;
  total_done : float;
  total_lost : float;
  total_overhead : float;
  per_workstation : ws_stats list;
}

(* Mutable per-workstation simulation state. *)
type ws_state = {
  cfg : workstation_config;
  sampler : Reclaim.sampler;
  rng : Prng.t;
  mutable epoch : int;  (** Bumped on every owner transition to invalidate
                            stale period-end events. *)
  mutable episode_start : float;
  mutable plan : (elapsed:float -> float option) option;
      (** The policy's closure for this workstation, made at its first
          episode and kept for the rest of the run. *)
  mutable next_period : (elapsed:float -> float option) option;
      (** [plan] while the live episode still asks it for periods. *)
  mutable in_flight : float;  (** Work assigned to the running period. *)
  mutable ep_index : int;  (** 0-based ordinal of the live episode. *)
  mutable ep_done : float;  (** Work banked within the live episode. *)
  mutable stats_done : Kahan.t;
  mutable stats_lost : Kahan.t;
  mutable stats_overhead : Kahan.t;
  mutable stats_episodes : int;
  mutable stats_completed : int;
  mutable stats_killed : int;
}

type event =
  | Period_end of { ws : int; epoch : int; assigned : float; period : float }
  | Owner_return of { ws : int; epoch : int }
  | Owner_leave of { ws : int }

(* Tie ranks: period completions strictly before owner returns at the same
   instant, so an exactly-on-time period still banks its work. *)
let tie_of = function
  | Period_end _ -> 0
  | Owner_return _ -> 1
  | Owner_leave _ -> 2

type link_model = Unlimited | Serialized

let run ?(obs = Obs.disabled) ?(link = Unlimited) config ~seed =
  if config.c <= 0.0 then invalid_arg "Farm.run: c must be > 0";
  if config.total_work <= 0.0 then
    invalid_arg "Farm.run: total_work must be > 0";
  if config.max_time <= 0.0 then invalid_arg "Farm.run: max_time must be > 0";
  (* The float spacing at max_time (its ulp): max_time = m 2^e with m in
     [0.5, 1) puts it at 2^(e - 53). A period lasts at least c, so a c no
     smaller than that ends every period strictly after its dispatch: a
     policy sees elapsed = 0 only at an episode's first period. *)
  let ulp = Float.ldexp 1.0 (snd (Float.frexp config.max_time) - 53) in
  if config.c < ulp then
    invalid_arg "Farm.run: c must be at least the float spacing at max_time";
  if config.workstations = [] then
    invalid_arg "Farm.run: need at least one workstation";
  List.iter
    (fun w ->
      if w.ws_presence_mean <= 0.0 then
        invalid_arg "Farm.run: presence mean must be > 0")
    config.workstations;
  let trace = Obs.tracing obs in
  let spanner = Obs.span_recorder obs in
  (match spanner with
  | Some r -> Obs.Span.enter r "farm.run"
  | None -> ());
  if trace then
    Obs.emit obs
      (Obs.Event.Run_started { time = 0.0; source = "farm"; seed = Some seed });
  let root = Prng.create ~seed in
  let states =
    Array.of_list
      (List.map
         (fun cfg ->
           {
             cfg;
             sampler = Reclaim.create cfg.ws_life;
             rng = Prng.split root;
             epoch = 0;
             episode_start = 0.0;
             plan = None;
             next_period = None;
             in_flight = 0.0;
             ep_index = -1;
             ep_done = 0.0;
             stats_done = Kahan.create ();
             stats_lost = Kahan.create ();
             stats_overhead = Kahan.create ();
             stats_episodes = 0;
             stats_completed = 0;
             stats_killed = 0;
           })
         config.workstations)
  in
  let q = Event_queue.create () in
  let push time ev =
    if time <= config.max_time then Event_queue.push q ~time ~tie:(tie_of ev) ev
  in
  (* Pool accounting: work not yet banked and not currently assigned. *)
  let unassigned = ref config.total_work in
  let banked = Kahan.create () in
  let finished_at = ref None in
  (* Master-link availability under the Serialized model. *)
  let link_free = ref 0.0 in
  (* Start a new period on workstation [i] at absolute time [now]; returns
     nothing, enqueues the period end if one is started. *)
  let start_period i now =
    let st = states.(i) in
    match st.next_period with
    | None -> ()
    | Some next -> (
        if !unassigned > 1e-12 then
          (* The policy call is the planning work (the adaptive policy
             re-plans against the conditional life function here), so it
             gets its own span enclosing any nested guideline spans. *)
          let choice =
            match spanner with
            | None -> next ~elapsed:(now -. st.episode_start)
            | Some r ->
                Obs.Span.record r "farm.next_period" (fun () ->
                    next ~elapsed:(now -. st.episode_start))
          in
          match choice with
          | None -> st.next_period <- None
          | Some t ->
              (* Clip the bundle to the work left in the pool. *)
              let productive = Float.max 0.0 (t -. config.c) in
              let assigned = Float.min productive !unassigned in
              let t = if assigned < productive then config.c +. assigned else t in
              if assigned > 0.0 then begin
                unassigned := !unassigned -. assigned;
                st.in_flight <- assigned;
                (* Under a serialized link the c-long dispatch queues for
                   the master; the period starts when the link frees. *)
                let dispatch =
                  match link with
                  | Unlimited -> now
                  | Serialized ->
                      let d = Float.max now !link_free in
                      link_free := d +. config.c;
                      d
                in
                if trace then
                  Obs.emit obs
                    (Obs.Event.Period_dispatched
                       {
                         time = dispatch;
                         ws = i;
                         ep = st.ep_index;
                         period = t;
                         assigned;
                       });
                push (dispatch +. t)
                  (Period_end { ws = i; epoch = st.epoch; assigned; period = t })
              end
              else st.next_period <- None)
  in
  let handle now = function
    | Owner_leave { ws } ->
        let st = states.(ws) in
        st.epoch <- st.epoch + 1;
        let absence = Reclaim.draw st.sampler st.rng in
        push (now +. absence) (Owner_return { ws; epoch = st.epoch });
        st.episode_start <- now;
        st.stats_episodes <- st.stats_episodes + 1;
        st.ep_index <- st.stats_episodes - 1;
        st.ep_done <- 0.0;
        if trace then
          Obs.emit obs
            (Obs.Event.Episode_started { time = now; ws; ep = st.ep_index });
        (* (ws_life, c) is fixed for the run, so the policy plans each
           workstation once; its closure learns of every later episode
           from elapsed = 0. *)
        if Option.is_none st.plan then
          st.plan <-
            Some
              (match spanner with
              | None -> config.policy.fresh_episode st.cfg.ws_life ~c:config.c
              | Some r ->
                  Obs.Span.record ~attrs:[ ("ws", Jsonx.Int ws) ] r
                    "farm.plan_workstation" (fun () ->
                      config.policy.fresh_episode st.cfg.ws_life ~c:config.c));
        st.next_period <- st.plan;
        start_period ws now
    | Owner_return { ws; epoch } ->
        let st = states.(ws) in
        if epoch = st.epoch then begin
          let was_in_flight = st.in_flight > 0.0 in
          (* Kill any in-flight period: its work returns to the pool. *)
          if was_in_flight then begin
            Kahan.add st.stats_lost st.in_flight;
            (* Pool balance, not a monotone sum: work flows out on dispatch
               (-.) and back on kills; a compensated carrier cannot express
               the two-way traffic and the magnitudes stay O(total_work). *)
            (unassigned := !unassigned +. st.in_flight) [@lint.allow "R2"];
            st.stats_killed <- st.stats_killed + 1
          end;
          if trace then begin
            if was_in_flight then
              Obs.emit obs
                (Obs.Event.Period_killed
                   {
                     time = now;
                     ws;
                     ep = st.ep_index;
                     lost = st.in_flight;
                     overhead = 0.0;
                   });
            Obs.emit obs
              (Obs.Event.Owner_returned { time = now; ws; ep = st.ep_index });
            Obs.emit obs
              (Obs.Event.Episode_finished
                 {
                   time = now;
                   ws;
                   ep = st.ep_index;
                   work_done = st.ep_done;
                   interrupted = was_in_flight;
                 })
          end;
          st.in_flight <- 0.0;
          st.next_period <- None;
          st.epoch <- st.epoch + 1;
          let presence =
            Prng.exponential st.rng ~rate:(1.0 /. st.cfg.ws_presence_mean)
          in
          push (now +. presence) (Owner_leave { ws })
        end
    | Period_end { ws; epoch; assigned; period } ->
        let st = states.(ws) in
        if epoch = st.epoch then begin
          st.in_flight <- 0.0;
          Kahan.add st.stats_done assigned;
          Kahan.add st.stats_overhead (Float.min period config.c);
          Kahan.add banked assigned;
          st.stats_completed <- st.stats_completed + 1;
          st.ep_done <- st.ep_done +. assigned;
          if trace then
            Obs.emit obs
              (Obs.Event.Period_completed
                 {
                   time = now;
                   ws;
                   ep = st.ep_index;
                   period;
                   banked = assigned;
                   overhead = Float.min period config.c;
                 });
          if
            Kahan.total banked >= config.total_work -. 1e-9
            && !finished_at = None
          then begin
            finished_at := Some now;
            if trace then
              Obs.emit obs
                (Obs.Event.Pool_drained
                   {
                     time = now;
                     remaining =
                       Float.max 0.0 (config.total_work -. Kahan.total banked);
                   })
          end
          else start_period ws now
        end
  in
  (* All owners initially present; each leaves after an exponential hold. *)
  Array.iteri
    (fun i st ->
      let presence =
        Prng.exponential st.rng ~rate:(1.0 /. st.cfg.ws_presence_mean)
      in
      push presence (Owner_leave { ws = i }))
    states;
  let rec loop () =
    if !finished_at = None then
      match Event_queue.pop q with
      | None -> ()
      | Some (now, ev) ->
          handle now ev;
          loop ()
  in
  loop ();
  let per_workstation =
    Array.to_list
      (Array.mapi
         (fun i st ->
           {
             ws_id = i;
             work_done = Kahan.total st.stats_done;
             work_lost = Kahan.total st.stats_lost;
             overhead = Kahan.total st.stats_overhead;
             episodes = st.stats_episodes;
             periods_completed = st.stats_completed;
             periods_killed = st.stats_killed;
           })
         states)
  in
  (* Work still assigned to in-flight periods when the clock stopped is
     counted back into the pool for conservation. *)
  let in_flight_total =
    Array.fold_left (fun acc st -> acc +. st.in_flight) 0.0 states
  in
  let makespan =
    match !finished_at with Some t -> t | None -> config.max_time
  in
  if trace then Obs.emit obs (Obs.Event.Run_finished { time = makespan });
  (match spanner with
  | Some r ->
      Obs.Span.exit r
        ~attrs:
          [
            ("makespan", Jsonx.Float makespan);
            ("finished", Jsonx.Bool (!finished_at <> None));
          ]
  | None -> ());
  {
    finished = !finished_at <> None;
    makespan;
    pool_remaining = !unassigned +. in_flight_total;
    total_done = Kahan.total banked;
    total_lost = List.fold_left (fun a w -> a +. w.work_lost) 0.0 per_workstation;
    total_overhead =
      List.fold_left (fun a w -> a +. w.overhead) 0.0 per_workstation;
    per_workstation;
  }
