(* Determinism lives in the protocol, not the scheduler: chunks are
   claimed from an atomic counter (dynamic load balance), every partial
   effect is confined to the chunk's own state, and reduction happens on
   the caller in chunk-index order. See domain_pool.mli for the
   contract.

   A per-chunk execution tripwire (one byte per chunk) turns any
   claim-protocol breakage into a counted [chunk_order_violations]; the
   caller folds each job's count into the pool's total after the
   completion barrier, so the count is as race-free as the results. *)

type job = {
  j_fn : int -> unit;
  j_chunks : int;
  j_next : int Atomic.t;  (* next unclaimed chunk index *)
  j_left : int Atomic.t;  (* chunks not yet completed *)
  mutable j_failures : (int * exn * Printexc.raw_backtrace) list;
      (* guarded by the pool mutex *)
  j_done : Bytes.t;  (* per-chunk execution tripwire *)
  j_viol : int Atomic.t;  (* double-executed chunks *)
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
  mutable violations : int;  (* written only by the caller between jobs *)
}

(* Run chunks of [job] until the claim counter is exhausted. Failures are
   recorded (never propagated out of a worker); completion of the last
   chunk flips [current] back to [None] and wakes the caller. A chunk's
   tripwire byte is written before its [j_left] decrement, which precedes
   the last completer's mutex-held clear of [current], so the caller's
   read of [current = None] under the mutex orders them. *)
let run_chunks t job =
  let rec claim () =
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i < job.j_chunks then begin
      if Bytes.get job.j_done i <> '\000' then Atomic.incr job.j_viol;
      Bytes.set job.j_done i '\001';
      (try job.j_fn i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         job.j_failures <- (i, e, bt) :: job.j_failures;
         Mutex.unlock t.mutex);
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

let worker t =
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
      run_chunks t job;
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
      violations = 0;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
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

(* Fold a completed job's tripwire into the pool's total. Runs on the
   caller after the completion barrier: a chunk claimed twice or never
   claimed is a violation. *)
let account t job =
  let unexecuted = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr unexecuted) job.j_done;
  t.violations <- t.violations + Atomic.get job.j_viol + !unexecuted

let parallel_for t ~chunks fn =
  check_alive t "parallel_for";
  if chunks < 0 then
    invalid_arg "Domain_pool.parallel_for: chunks must be >= 0";
  if chunks = 0 then ()
  else if t.n_domains = 1 || chunks = 1 then
    (* Serial path: no pool machinery at all. A raising chunk propagates
       immediately, which is the lowest-index failure by construction. *)
    for i = 0 to chunks - 1 do
      fn i
    done
  else begin
    let job =
      {
        j_fn = fn;
        j_chunks = chunks;
        j_next = Atomic.make 0;
        j_left = Atomic.make chunks;
        j_failures = [];
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
    run_chunks t job;
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

let chunk_order_violations t = t.violations

let run ?pool ~chunks fn =
  match pool with
  | Some t -> parallel_for t ~chunks fn
  | None ->
      if chunks < 0 then invalid_arg "Domain_pool.run: chunks must be >= 0";
      for i = 0 to chunks - 1 do
        fn i
      done
