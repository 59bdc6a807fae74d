type estimate = {
  trials : int;
  mean_work : float;
  ci95 : float * float;
  mean_overhead : float;
  mean_lost : float;
  interrupted_fraction : float;
  analytic : float;
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
  let chunks = n_chunks trials in
  let gens = Prng.split_n g chunks in
  let works = Array.make trials 0.0 in
  let overhead_parts = Array.make chunks 0.0 in
  let lost_parts = Array.make chunks 0.0 in
  let interrupted_parts = Array.make chunks 0 in
  let kids = Obs_fork.scatter obs ~n:chunks in
  let run_chunk k =
    let cobs = Obs_fork.child kids k in
    (* An uninstrumented chunk passes no [?obs]/[?ep], so a trial builds
       no [Some] for them; [Episode.run] would observe nothing anyway. *)
    let instr = Obs.instrumented cobs in
    let gk = gens.(k) in
    let first = k * chunk_size in
    let stop = Int.min trials (first + chunk_size) in
    let body () =
      let overhead = Kahan.create () in
      let lost = Kahan.create () in
      let interrupted = ref 0 in
      for i = first to stop - 1 do
        let reclaim_at = Reclaim.draw sampler gk in
        let o =
          if instr then Episode.run ~obs:cobs ~ep:i schedule ~c ~reclaim_at
          else Episode.run schedule ~c ~reclaim_at
        in
        works.(i) <- o.Episode.work_done;
        Kahan.add overhead o.Episode.overhead;
        Kahan.add lost o.Episode.work_lost;
        if o.Episode.interrupted then incr interrupted
      done;
      overhead_parts.(k) <- Kahan.total overhead;
      lost_parts.(k) <- Kahan.total lost;
      interrupted_parts.(k) <- !interrupted
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
  let interrupted = ref 0 in
  for k = 0 to chunks - 1 do
    Kahan.add overhead overhead_parts.(k);
    Kahan.add lost lost_parts.(k);
    interrupted := !interrupted + interrupted_parts.(k)
  done;
  let tf = float_of_int trials in
  let summary = Stats.summarize works in
  {
    trials;
    mean_work = summary.Stats.mean;
    ci95 = Stats.summary_ci95 summary;
    mean_overhead = Kahan.total overhead /. tf;
    mean_lost = Kahan.total lost /. tf;
    interrupted_fraction = float_of_int !interrupted /. tf;
    analytic = Schedule.expected_work ~c lf schedule;
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
    let policy_name, schedule = pol.(pi) in
    let cobs = Obs_fork.child kids j in
    let instr = Obs.instrumented cobs in
    let first = k * chunk_size in
    let stop = Int.min trials (first + chunk_size) in
    let body () =
      let acc = Kahan.create () in
      for ti = first to stop - 1 do
        let reclaim_at = reclaims.(ti) in
        let o =
          if instr then
            Episode.run ~obs:cobs ~ws:pi ~ep:ti schedule ~c ~reclaim_at
          else Episode.run schedule ~c ~reclaim_at
        in
        Kahan.add acc o.Episode.work_done
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
