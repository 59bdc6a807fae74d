type estimate = {
  trials : int;
  mean_work : float;
  ci95 : float * float;
  mean_overhead : float;
  mean_lost : float;
  interrupted_fraction : float;
  analytic : float;
  completed : int array;
}

(* The fixed chunk grid (DESIGN.md §10): geometry depends only on the
   trial count, never on the domain count, and chunk [k] always owns
   Prng stream [k] and partial-sum slot [k]. Results are therefore
   bit-identical whether the grid runs inline, on 2 domains or on 8. *)
let chunk_size = 512

let n_chunks trials = (trials + chunk_size - 1) / chunk_size

let estimate ?(obs = Obs.disabled) ?pool ?(trials = 20_000) lf ~c ~schedule
    ~seed =
  if trials < 2 then
    invalid_arg
      (Printf.sprintf "Monte_carlo.estimate: trials must be >= 2, got %d"
         trials);
  if Obs.tracing obs then
    Obs.emit obs
      (Obs.Event.Run_started
         { time = 0.0; source = "monte_carlo"; seed = Some seed });
  let g = Prng.create ~seed in
  let sampler = Reclaim.create lf in
  let replay = Episode.replay schedule ~c in
  let n = Schedule.num_periods schedule in
  let chunks = n_chunks trials in
  let gens = Prng.split_n g chunks in
  (* Completed-period tallies of n + 1 slots, one per chunk running at
     once: a chunk takes a spare one, or makes one, and gives it back.
     Counts add exactly, so which chunks shared a tally changes no
     count, and a 100,000-period schedule costs n + 1 words per domain,
     not per chunk. *)
  let spare = ref [] and lock = Mutex.create () in
  let take () =
    Mutex.protect lock (fun () ->
        match !spare with
        | tally :: rest ->
            spare := rest;
            tally
        | [] -> Array.make (n + 1) 0)
  in
  let give tally = Mutex.protect lock (fun () -> spare := tally :: !spare) in
  let overhead_parts = Array.make chunks 0.0 in
  let lost_parts = Array.make chunks 0.0 in
  let kids = Obs_fork.scatter obs ~n:chunks in
  let run_chunk k =
    let cobs = Obs_fork.child kids k in
    (* An uninstrumented chunk settles each trial into one settlement and
       builds no outcome; [Episode.play] would observe nothing anyway. *)
    let instr = Obs.instrumented cobs in
    let gk = gens.(k) in
    let first = k * chunk_size in
    let stop = Int.min trials (first + chunk_size) in
    let body () =
      let st = Episode.settlement () in
      let tally = take () in
      let overhead = Kahan.create () in
      let lost = Kahan.create () in
      for i = first to stop - 1 do
        let reclaim_at = Reclaim.draw sampler gk in
        if instr then begin
          let o = Episode.play ~obs:cobs ~ep:i replay ~reclaim_at in
          let j = o.Episode.periods_completed in
          tally.(j) <- tally.(j) + 1;
          Kahan.add overhead o.Episode.overhead;
          Kahan.add lost o.Episode.work_lost
        end
        else begin
          let j = Episode.settle replay st ~reclaim_at in
          tally.(j) <- tally.(j) + 1;
          Kahan.add overhead st.Episode.spent;
          Kahan.add lost st.Episode.lost
        end
      done;
      give tally;
      overhead_parts.(k) <- Kahan.total overhead;
      lost_parts.(k) <- Kahan.total lost
    in
    match Obs.span_recorder cobs with
    | None -> body ()
    | Some r ->
        Obs.Span.record r "mc.chunk"
          ~attrs:
            [ ("first", Jsonx.Int first); ("count", Jsonx.Int (stop - first)) ]
          body
  in
  Obs.span obs "mc.estimate" (fun () ->
      Domain_pool.run ?pool ~chunks run_chunk;
      (* Chunk-index order: child spans and buffered events merge back
         identically for any domain count. *)
      Obs_fork.gather obs kids);
  if Obs.tracing obs then Obs.emit obs (Obs.Event.Run_finished { time = 0.0 });
  let overhead = Kahan.create () in
  let lost = Kahan.create () in
  for k = 0 to chunks - 1 do
    Kahan.add overhead overhead_parts.(k);
    Kahan.add lost lost_parts.(k)
  done;
  let completed =
    match !spare with
    | [] -> Array.make (n + 1) 0
    | tally :: others ->
        List.iter
          (Array.iteri (fun j m -> tally.(j) <- tally.(j) + m))
          others;
        tally
  in
  (* A trial that completes k periods banks W_S after k, so the sample is
     the n + 1 table entries, each weighted by its count. *)
  let mean, variance =
    Stats.tally_mean_variance ~counts:completed
      ~value:(Episode.work_after replay)
  in
  let tf = float_of_int trials in
  {
    trials;
    mean_work = mean;
    ci95 = Stats.ci95 ~mean ~variance ~n:trials;
    mean_overhead = Kahan.total overhead /. tf;
    mean_lost = Kahan.total lost /. tf;
    interrupted_fraction = float_of_int (trials - completed.(n)) /. tf;
    analytic = Schedule.expected_work ~c lf schedule;
    completed;
  }

type policy_run = {
  policy_name : string;
  mean_work_per_episode : float;
  episodes : int;
}

let compare_policies ?(obs = Obs.disabled) ?pool ?(trials = 20_000) lf ~c
    ~policies ~seed =
  if trials < 1 then
    invalid_arg
      (Printf.sprintf
         "Monte_carlo.compare_policies: trials must be >= 1, got %d" trials);
  (match policies with
  | [] -> invalid_arg "Monte_carlo.compare_policies: policies must not be empty"
  | _ :: _ -> ());
  if Obs.tracing obs then
    Obs.emit obs
      (Obs.Event.Run_started
         { time = 0.0; source = "compare_policies"; seed = Some seed });
  let sampler = Reclaim.create lf in
  let g = Prng.create ~seed in
  (* Common random numbers: one shared stream of reclaim times, drawn
     serially so the stream is independent of the chunking below. *)
  let reclaims = Array.init trials (fun _ -> Reclaim.draw sampler g) in
  let pol = Array.of_list policies in
  let replays = Array.map (fun (_, schedule) -> Episode.replay schedule ~c) pol in
  let npol = Array.length pol in
  let chunks = n_chunks trials in
  (* One flat job grid over policies × chunks, so a few policies still
     spread over many domains. Job j = policy (j / chunks), chunk
     (j mod chunks). *)
  let jobs = npol * chunks in
  let partials = Array.make jobs 0.0 in
  let kids = Obs_fork.scatter obs ~n:jobs in
  let run_job j =
    let pi = j / chunks and k = j mod chunks in
    let policy_name, _ = pol.(pi) in
    let replay = replays.(pi) in
    let cobs = Obs_fork.child kids j in
    let instr = Obs.instrumented cobs in
    let first = k * chunk_size in
    let stop = Int.min trials (first + chunk_size) in
    let body () =
      let st = Episode.settlement () in
      let acc = Kahan.create () in
      for ti = first to stop - 1 do
        let reclaim_at = reclaims.(ti) in
        if instr then
          Kahan.add acc
            (Episode.play ~obs:cobs ~ws:pi ~ep:ti replay ~reclaim_at)
              .Episode.work_done
        else begin
          ignore (Episode.settle replay st ~reclaim_at : int);
          Kahan.add acc st.Episode.banked
        end
      done;
      partials.(j) <- Kahan.total acc
    in
    match Obs.span_recorder cobs with
    | None -> body ()
    | Some r ->
        Obs.Span.record r "mc.policy"
          ~attrs:
            [
              ("policy", Jsonx.String policy_name);
              ("first", Jsonx.Int first);
              ("count", Jsonx.Int (stop - first));
            ]
          body
  in
  Obs.span obs "mc.compare" (fun () ->
      Domain_pool.run ?pool ~chunks:jobs run_job;
      Obs_fork.gather obs kids);
  if Obs.tracing obs then Obs.emit obs (Obs.Event.Run_finished { time = 0.0 });
  let runs =
    List.mapi
      (fun pi (policy_name, _) ->
        let acc = Kahan.create () in
        for k = 0 to chunks - 1 do
          Kahan.add acc partials.((pi * chunks) + k)
        done;
        {
          policy_name;
          mean_work_per_episode = Kahan.total acc /. float_of_int trials;
          episodes = trials;
        })
      policies
  in
  List.sort
    (fun a b -> Float.compare b.mean_work_per_episode a.mean_work_per_episode)
    runs
