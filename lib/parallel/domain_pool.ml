(* Determinism lives in the protocol, not the scheduler: chunks are
   claimed from an atomic counter (dynamic load balance), every partial
   effect is confined to the chunk's own state, and reduction happens on
   the caller in chunk-index order. See domain_pool.mli for the
   contract.

   Utilization accounting rides along: each domain writes only its own
   slot of the per-job arrays while a job is in flight, and the caller
   folds the job's numbers into the pool's compensated cumulative totals
   after the completion barrier — so the accounting is as race-free as
   the results. A per-chunk execution tripwire (one byte per chunk)
   turns any claim-protocol breakage into a counted
   [chunk_order_violations], the invariant the health rules pin at 0. *)

type job = {
  j_fn : int -> unit;
  j_chunks : int;
  j_next : int Atomic.t;  (* next unclaimed chunk index *)
  j_left : int Atomic.t;  (* chunks not yet completed *)
  mutable j_failures : (int * exn * Printexc.raw_backtrace) list;
      (* guarded by the pool mutex *)
  j_t0 : float;  (* submission time *)
  j_busy : float array;  (* per-domain in-chunk seconds *)
  j_first : float array;  (* per-domain first-claim time; nan = never *)
  j_nchunks : int array;  (* per-domain executed chunks *)
  j_done : Bytes.t;  (* per-chunk execution tripwire *)
  j_viol : int Atomic.t;  (* double-executed chunks *)
}

type domain_stat = {
  d_domain : int;
  d_chunks : int;
  d_busy_s : float;
  d_idle_s : float;
  d_queue_wait_s : float;
  d_merge_s : float;
}

type t = {
  n_domains : int;
  mutex : Mutex.t;
  work_cv : Condition.t;  (* workers: a new job arrived, or shutdown *)
  done_cv : Condition.t;  (* caller: the current job completed *)
  mutable current : job option;
  mutable generation : int;  (* bumped once per submitted job *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  (* cumulative utilization, written only by the caller between jobs *)
  u_chunks : int array;
  u_busy : Kahan.t array;
  u_idle : Kahan.t array;
  u_wait : Kahan.t array;
  u_merge : Kahan.t;
  mutable u_runs : int;
  mutable u_violations : int;
}

(* Run chunks of [job] until the claim counter is exhausted. Failures are
   recorded (never propagated out of a worker); completion of the last
   chunk flips [current] back to [None] and wakes the caller. Busy time
   and chunk counts go to this domain's private slot; the slot writes
   happen before this domain's final [j_left] decrement, which precedes
   the last completer's mutex-held clear of [current], so the caller's
   read of [current = None] under the mutex orders them. *)
let run_chunks t job ~dom =
  let rec claim () =
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i < job.j_chunks then begin
      let t_claim = Obs_clock.now () in
      if Float.is_nan job.j_first.(dom) then job.j_first.(dom) <- t_claim;
      if Bytes.get job.j_done i <> '\000' then Atomic.incr job.j_viol;
      Bytes.set job.j_done i '\001';
      (try job.j_fn i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         job.j_failures <- (i, e, bt) :: job.j_failures;
         Mutex.unlock t.mutex);
      job.j_busy.(dom) <- job.j_busy.(dom) +. Obs_clock.elapsed_since t_claim;
      job.j_nchunks.(dom) <- job.j_nchunks.(dom) + 1;
      if Atomic.fetch_and_add job.j_left (-1) = 1 then begin
        Mutex.lock t.mutex;
        t.current <- None;
        Condition.signal t.done_cv;
        Mutex.unlock t.mutex
      end;
      claim ()
    end
  in
  claim ()

let worker t dom =
  let rec loop last_gen =
    Mutex.lock t.mutex;
    while
      (not t.shutting_down)
      && (t.generation = last_gen || Option.is_none t.current)
    do
      Condition.wait t.work_cv t.mutex
    done;
    if t.shutting_down then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let job = Option.get t.current in
      Mutex.unlock t.mutex;
      run_chunks t job ~dom;
      loop gen
    end
  in
  loop 0

let create ~domains =
  if domains < 1 || domains > 128 then
    invalid_arg
      (Printf.sprintf "Domain_pool.create: domains must be in [1, 128] (got %d)"
         domains);
  let t =
    {
      n_domains = domains;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      current = None;
      generation = 0;
      shutting_down = false;
      workers = [];
      u_chunks = Array.make domains 0;
      u_busy = Array.init domains (fun _ -> Kahan.create ());
      u_idle = Array.init domains (fun _ -> Kahan.create ());
      u_wait = Array.init domains (fun _ -> Kahan.create ());
      u_merge = Kahan.create ();
      u_runs = 0;
      u_violations = 0;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let domains t = t.n_domains

let check_alive t op =
  if t.shutting_down then
    invalid_arg (Printf.sprintf "Domain_pool.%s: pool is shut down" op)

let reraise_first_failure job =
  match
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) job.j_failures
  with
  | [] -> ()
  | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt

(* Fold a completed job's per-domain numbers into the pool's cumulative
   totals. Runs on the caller after the completion barrier; [window] is
   the job's submit-to-done span. A domain that never claimed a chunk
   spent the whole window idle (it was awake but lost every race); one
   that did claim waited [first - t0] for its first chunk and idled for
   whatever remains. *)
let account t job =
  let window = Obs_clock.elapsed_since job.j_t0 in
  for d = 0 to t.n_domains - 1 do
    let busy = job.j_busy.(d) in
    let wait =
      if Float.is_nan job.j_first.(d) then 0.0
      else Float.max 0.0 (job.j_first.(d) -. job.j_t0)
    in
    let idle = Float.max 0.0 (window -. wait -. busy) in
    t.u_chunks.(d) <- t.u_chunks.(d) + job.j_nchunks.(d);
    Kahan.add t.u_busy.(d) busy;
    Kahan.add t.u_wait.(d) wait;
    Kahan.add t.u_idle.(d) idle
  done;
  let unexecuted = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr unexecuted) job.j_done;
  t.u_violations <- t.u_violations + Atomic.get job.j_viol + !unexecuted;
  t.u_runs <- t.u_runs + 1

let parallel_for t ~chunks fn =
  check_alive t "parallel_for";
  if chunks < 0 then
    invalid_arg "Domain_pool.parallel_for: chunks must be >= 0";
  if chunks = 0 then ()
  else if t.n_domains = 1 || chunks = 1 then begin
    (* Serial path: no pool machinery at all. A raising chunk propagates
       immediately, which is the lowest-index failure by construction.
       Two clock reads for the whole loop, all of it caller busy time. *)
    let t0 = Obs_clock.now () in
    let finish () =
      Kahan.add t.u_busy.(0) (Obs_clock.elapsed_since t0);
      t.u_chunks.(0) <- t.u_chunks.(0) + chunks;
      t.u_runs <- t.u_runs + 1
    in
    (try
       for i = 0 to chunks - 1 do
         fn i
       done
     with e ->
       finish ();
       raise e);
    finish ()
  end
  else begin
    let job =
      {
        j_fn = fn;
        j_chunks = chunks;
        j_next = Atomic.make 0;
        j_left = Atomic.make chunks;
        j_failures = [];
        j_t0 = Obs_clock.now ();
        j_busy = Array.make t.n_domains 0.0;
        j_first = Array.make t.n_domains nan;
        j_nchunks = Array.make t.n_domains 0;
        j_done = Bytes.make chunks '\000';
        j_viol = Atomic.make 0;
      }
    in
    Mutex.lock t.mutex;
    if Option.is_some t.current then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.parallel_for: a parallel operation is already \
                   in flight on this pool"
    end;
    t.current <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mutex;
    (* The caller is a worker too. *)
    run_chunks t job ~dom:0;
    (* Wait for [current] to clear, not for [j_left] to reach 0: the
       last completer decrements [j_left] before it takes the mutex to
       clear [current], and a caller that returned in between would
       find its own next job refused as "already in flight". *)
    Mutex.lock t.mutex;
    while Option.is_some t.current do
      Condition.wait t.done_cv t.mutex
    done;
    Mutex.unlock t.mutex;
    account t job;
    reraise_first_failure job
  end

let map t ~chunks f =
  if chunks < 0 then invalid_arg "Domain_pool.map: chunks must be >= 0";
  if chunks = 0 then [||]
  else begin
    let slots = Array.make chunks None in
    parallel_for t ~chunks (fun i -> slots.(i) <- Some (f i));
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Domain_pool.map: chunk produced no result")
      slots
  end

let map_reduce t ~chunks ~map:f ~reduce ~init =
  Array.fold_left reduce init (map t ~chunks f)

let shutdown t =
  Mutex.lock t.mutex;
  if t.shutting_down then Mutex.unlock t.mutex
  else begin
    t.shutting_down <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- utilization reporting ---------------------------------------- *)

let utilization t =
  Array.init t.n_domains (fun d ->
      {
        d_domain = d;
        d_chunks = t.u_chunks.(d);
        d_busy_s = Kahan.total t.u_busy.(d);
        d_idle_s = Kahan.total t.u_idle.(d);
        d_queue_wait_s = Kahan.total t.u_wait.(d);
        d_merge_s = (if d = 0 then Kahan.total t.u_merge else 0.0);
      })

let runs t = t.u_runs
let chunk_order_violations t = t.u_violations
let merge_seconds t = Kahan.total t.u_merge
let add_merge_seconds t s = Kahan.add t.u_merge s

let pp_utilization ppf t =
  Array.iter
    (fun d ->
      Format.fprintf ppf
        "domain %d: %d chunk(s), busy %.6fs, idle %.6fs, wait %.6fs%s@."
        d.d_domain d.d_chunks d.d_busy_s d.d_idle_s d.d_queue_wait_s
        (if d.d_domain = 0 then Printf.sprintf ", merge %.6fs" d.d_merge_s
         else ""))
    (utilization t);
  Format.fprintf ppf
    "pool: %d domain(s), %d run(s), %d chunk-order violation(s)@." t.n_domains
    t.u_runs t.u_violations

(* --- obs metrics bridge ------------------------------------------- *)

(* All pool series are gauges, never counters or histograms: their
   values are wall-time-like (nondeterministic across domain counts and
   machines), and the determinism gates compare counter sets
   bit-for-bit. Gauges carry the diagnosis without entering any
   deterministic comparison. *)

let bump m name v =
  let g = Obs_metrics.gauge m name in
  let cur = Obs_metrics.gauge_value g in
  Obs_metrics.set g ((if Float.is_nan cur then 0.0 else cur) +. v)

let set m name v = Obs_metrics.set (Obs_metrics.gauge m name) v

let publish t m =
  set m "pool.domains" (float_of_int t.n_domains);
  set m "pool.runs" (float_of_int t.u_runs);
  set m "pool.chunks" (float_of_int (Array.fold_left ( + ) 0 t.u_chunks));
  set m "pool.busy_seconds" (Kahan.sum_by Kahan.total t.u_busy);
  set m "pool.idle_seconds" (Kahan.sum_by Kahan.total t.u_idle);
  set m "pool.queue_wait_seconds" (Kahan.sum_by Kahan.total t.u_wait);
  set m "pool.merge_seconds" (Kahan.total t.u_merge);
  set m "pool.chunk_order_violations" (float_of_int t.u_violations)

let note_merge ?pool ?metrics ~seconds () =
  match pool with
  | Some t -> (
      Kahan.add t.u_merge seconds;
      match metrics with
      | Some m -> set m "pool.merge_seconds" (Kahan.total t.u_merge)
      | None -> ())
  | None -> (
      match metrics with
      | Some m -> bump m "pool.merge_seconds" seconds
      | None -> ())

let run ?pool ?domains ?metrics ~chunks fn =
  match (pool, domains) with
  | Some t, _ ->
      parallel_for t ~chunks fn;
      (match metrics with Some m -> publish t m | None -> ())
  | None, Some d when d <> 1 ->
      (* [create] validates the range and spawns the transient workers;
         d = 1 skips it entirely so the common serial call stays free.
         A transient pool's totals are this run's totals, so they bump
         the registry's running aggregates rather than overwrite. *)
      with_pool ~domains:d (fun t ->
          parallel_for t ~chunks fn;
          match metrics with
          | Some m ->
              set m "pool.domains" (float_of_int d);
              bump m "pool.runs" (float_of_int t.u_runs);
              bump m "pool.chunks"
                (float_of_int (Array.fold_left ( + ) 0 t.u_chunks));
              bump m "pool.busy_seconds" (Kahan.sum_by Kahan.total t.u_busy);
              bump m "pool.idle_seconds" (Kahan.sum_by Kahan.total t.u_idle);
              bump m "pool.queue_wait_seconds"
                (Kahan.sum_by Kahan.total t.u_wait);
              bump m "pool.chunk_order_violations"
                (float_of_int t.u_violations)
          | None -> ())
  | None, (Some _ | None) -> (
      if chunks < 0 then invalid_arg "Domain_pool.run: chunks must be >= 0";
      match metrics with
      | None ->
          for i = 0 to chunks - 1 do
            fn i
          done
      | Some m ->
          let t0 = Obs_clock.now () in
          (for i = 0 to chunks - 1 do
             fn i
           done);
          set m "pool.domains" 1.0;
          bump m "pool.runs" 1.0;
          bump m "pool.chunks" (float_of_int chunks);
          bump m "pool.busy_seconds" (Obs_clock.elapsed_since t0);
          bump m "pool.idle_seconds" 0.0;
          bump m "pool.queue_wait_seconds" 0.0;
          bump m "pool.chunk_order_violations" 0.0)
