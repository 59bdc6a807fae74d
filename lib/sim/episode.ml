type outcome = {
  work_done : float;
  work_lost : float;
  overhead : float;
  periods_completed : int;
  interrupted : bool;
  elapsed : float;
}

(* Pre-resolved metric instruments, so the per-period hot path touches
   record fields instead of hashing names. *)
type meters = {
  m_runs : Obs.Metrics.counter;
  m_completed : Obs.Metrics.counter;
  m_killed : Obs.Metrics.counter;
  m_period_length : Obs.Metrics.histogram;
  m_elapsed : Obs.Metrics.histogram;
}

let meters_of m =
  {
    m_runs = Obs.Metrics.counter m "episode.runs";
    m_completed = Obs.Metrics.counter m "episode.periods_completed";
    m_killed = Obs.Metrics.counter m "episode.periods_killed";
    m_period_length = Obs.Metrics.histogram m "episode.period_length";
    m_elapsed = Obs.Metrics.histogram m "episode.elapsed";
  }

(* [Schedule.positive_sub] and [Float.min], kept local to the hot loop: a
   call into another module boxes its float arguments. On the inputs [run]
   sees (a schedule's periods are finite and > 0, and [c] is anything the
   check below lets through, NaN included) they agree with the library
   functions bit for bit. *)
let pos_sub x y =
  let w = x -. y in
  if w < 0.0 then 0.0 else w

let min_of x y = if x < y then x else y

let run ?(obs = Obs.disabled) ?(ws = 0) ?(ep = 0) s ~c ~reclaim_at =
  if c < 0.0 then invalid_arg "Episode.run: c must be >= 0";
  if reclaim_at < 0.0 then invalid_arg "Episode.run: reclaim_at must be >= 0";
  let trace = Obs.tracing obs in
  let meters = Option.map meters_of (Obs.metrics obs) in
  let spanner = Obs.span_recorder obs in
  let instr = trace || Option.is_some meters in
  (match spanner with
  | Some r -> Obs.Span.enter r "episode.run"
  | None -> ());
  (* Read in place: a trial visits a few periods of a schedule that may
     have hundreds, so it copies neither array. *)
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  let done_acc = Kahan.create () in
  let overhead = Kahan.create () in
  let completed = ref 0 in
  let interrupted = ref false in
  let work_lost = ref 0.0 in
  if instr then begin
    if trace then Obs.emit obs (Obs.Event.Episode_started { time = 0.0; ws; ep });
    match meters with Some m -> Obs.Metrics.incr m.m_runs | None -> ()
  end;
  let i = ref 0 in
  while (not !interrupted) && !i < n do
    let t = periods.(!i) in
    let t_end = ends.(!i) in
    if t_end <= reclaim_at then begin
      (* Period completed before (or exactly at) the owner's return. *)
      Kahan.add done_acc (pos_sub t c);
      Kahan.add overhead (min_of t c);
      incr completed;
      if instr then begin
        if trace then begin
          Obs.emit obs
            (Obs.Event.Period_dispatched
               {
                 time = t_end -. t;
                 ws;
                 ep;
                 period = t;
                 assigned = pos_sub t c;
               });
          Obs.emit obs
            (Obs.Event.Period_completed
               {
                 time = t_end;
                 ws;
                 ep;
                 period = t;
                 banked = pos_sub t c;
                 overhead = min_of t c;
               })
        end;
        match meters with
        | Some m ->
            Obs.Metrics.incr m.m_completed;
            Obs.Metrics.observe m.m_period_length t
        | None -> ()
      end;
      incr i
    end
    else begin
      let t_start = t_end -. t in
      if t_start < reclaim_at then begin
        (* Kill mid-period: all of this period's productive time is lost. *)
        interrupted := true;
        let in_flight = reclaim_at -. t_start in
        Kahan.add overhead (min_of in_flight c);
        work_lost := pos_sub in_flight c;
        if instr then begin
          if trace then begin
            Obs.emit obs
              (Obs.Event.Period_dispatched
                 {
                   time = t_start;
                   ws;
                   ep;
                   period = t;
                   assigned = pos_sub t c;
                 });
            Obs.emit obs
              (Obs.Event.Period_killed
                 {
                   time = reclaim_at;
                   ws;
                   ep;
                   lost = !work_lost;
                   overhead = min_of in_flight c;
                 })
          end;
          match meters with
          | Some m ->
              Obs.Metrics.incr m.m_killed;
              Obs.Metrics.observe m.m_period_length t
          | None -> ()
        end
      end
      else begin
        (* The reclaim arrived in the gap at t_start = reclaim_at: episode
           over before this period started. *)
        interrupted := true
      end
    end
  done;
  let elapsed =
    if !interrupted then reclaim_at else ends.(n - 1)
  in
  if instr then begin
    if trace then begin
      if !interrupted then
        Obs.emit obs (Obs.Event.Owner_returned { time = reclaim_at; ws; ep });
      Obs.emit obs
        (Obs.Event.Episode_finished
           {
             time = elapsed;
             ws;
             ep;
             work_done = Kahan.total done_acc;
             interrupted = !interrupted;
           })
    end;
    match meters with
    | Some m -> Obs.Metrics.observe m.m_elapsed elapsed
    | None -> ()
  end;
  (match spanner with
  | Some r ->
      Obs.Span.exit r
        ~attrs:
          [
            ("completed", Jsonx.Int !completed);
            ("interrupted", Jsonx.Bool !interrupted);
          ]
  | None -> ());
  {
    work_done = Kahan.total done_acc;
    work_lost = !work_lost;
    overhead = Kahan.total overhead;
    periods_completed = !completed;
    interrupted = !interrupted;
    elapsed;
  }

let work_if_reclaimed_at s ~c t = (run s ~c ~reclaim_at:t).work_done
