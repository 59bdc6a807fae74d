type outcome = {
  work_done : float;
  work_lost : float;
  overhead : float;
  periods_completed : int;
  interrupted : bool;
  elapsed : float;
}

(* [Schedule.positive_sub] and [Float.min], kept local to the hot loop: a
   call into another module boxes its float arguments. On the inputs [run]
   sees (a schedule's periods are finite and > 0, and [c] is anything the
   check below lets through, NaN included) they agree with the library
   functions bit for bit. [min_of] is typed: a polymorphic one is not
   inlined and compares its boxed arguments through [caml_lessthan]. *)
let pos_sub x y =
  let w = x -. y in
  if w < 0.0 then 0.0 else w

let min_of (x : float) y = if x < y then x else y

type replay = {
  schedule : Schedule.t;
  c : float;
  work_at : float array;
  overhead_at : Kahan.t array;
}

(* Slot [k] of each table holds the sum over periods [0 .. k-1], built with
   the adds [run] makes, in its order. Slot 0 is the empty sum. *)
let replay s ~c =
  if c < 0.0 then invalid_arg "Episode.replay: c must be >= 0";
  let periods = s.Schedule.periods in
  let n = Array.length periods in
  let work_at = Array.make (n + 1) 0.0 in
  let overhead_at = Array.make (n + 1) (Kahan.create ()) in
  let done_acc = Kahan.create () in
  let over = Kahan.create () in
  for i = 0 to n - 1 do
    let t = periods.(i) in
    Kahan.add done_acc (pos_sub t c);
    Kahan.add over (min_of t c);
    work_at.(i + 1) <- Kahan.total done_acc;
    overhead_at.(i + 1) <- Kahan.copy over
  done;
  { schedule = s; c; work_at; overhead_at }

(* How many periods complete: those ending at or before the owner's
   return, so a period completing exactly at the reclaim instant counts.
   A NaN reclaim time completes none. Typed, so that each comparison is a
   float compare and not [caml_lessequal] on a boxed element. *)
let completed_by (ends : float array) (reclaim_at : float) =
  let n = Array.length ends in
  let k = ref 0 in
  while !k < n && ends.(!k) <= reclaim_at do
    incr k
  done;
  !k

let enter_span obs =
  let spanner = Obs.span_recorder obs in
  (match spanner with
  | Some r -> Obs.Span.enter r "episode.run"
  | None -> ());
  spanner

(* Everything after the first [k] periods completed: their events, the
   settlement of period [k], the closing events and span. [work_done] is
   the banked work of those [k] periods and [overhead] the overhead sum's
   state after them, read and never changed. *)
let settle obs spanner ~ws ~ep s ~c ~reclaim_at ~k ~work_done ~overhead =
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  let trace = Obs.tracing obs in
  if trace then begin
    Obs.emit obs (Obs.Event.Episode_started { time = 0.0; ws; ep });
    for i = 0 to k - 1 do
      let t = periods.(i) in
      let t_end = ends.(i) in
      Obs.emit obs
        (Obs.Event.Period_dispatched
           { time = t_end -. t; ws; ep; period = t; assigned = pos_sub t c });
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
    done
  end;
  let o =
    if k = n then
      {
        work_done;
        work_lost = 0.0;
        overhead = Kahan.total overhead;
        periods_completed = k;
        interrupted = false;
        elapsed = ends.(n - 1);
      }
    else begin
      let t = periods.(k) in
      let t_start = ends.(k) -. t in
      if t_start < reclaim_at then begin
        (* Kill mid-period: all of this period's productive time is lost. *)
        let in_flight = reclaim_at -. t_start in
        let lost = pos_sub in_flight c in
        let spent = min_of in_flight c in
        if trace then begin
          Obs.emit obs
            (Obs.Event.Period_dispatched
               { time = t_start; ws; ep; period = t; assigned = pos_sub t c });
          Obs.emit obs
            (Obs.Event.Period_killed
               { time = reclaim_at; ws; ep; lost; overhead = spent })
        end;
        {
          work_done;
          work_lost = lost;
          overhead = Kahan.total_with overhead spent;
          periods_completed = k;
          interrupted = true;
          elapsed = reclaim_at;
        }
      end
      else
        (* The reclaim arrived in the gap at t_start = reclaim_at: episode
           over before this period started. *)
        {
          work_done;
          work_lost = 0.0;
          overhead = Kahan.total overhead;
          periods_completed = k;
          interrupted = true;
          elapsed = reclaim_at;
        }
    end
  in
  if trace then begin
    if o.interrupted then
      Obs.emit obs (Obs.Event.Owner_returned { time = reclaim_at; ws; ep });
    Obs.emit obs
      (Obs.Event.Episode_finished
         { time = o.elapsed; ws; ep; work_done; interrupted = o.interrupted })
  end;
  (match spanner with
  | Some r ->
      Obs.Span.exit r
        ~attrs:
          [
            ("completed", Jsonx.Int k); ("interrupted", Jsonx.Bool o.interrupted);
          ]
  | None -> ());
  o

let run ?(obs = Obs.disabled) ?(ws = 0) ?(ep = 0) s ~c ~reclaim_at =
  if c < 0.0 then invalid_arg "Episode.run: c must be >= 0";
  if reclaim_at < 0.0 then invalid_arg "Episode.run: reclaim_at must be >= 0";
  let spanner = enter_span obs in
  (* Read in place: a trial visits a few periods of a schedule that may
     have hundreds, so it copies neither array. *)
  let periods = s.Schedule.periods in
  let k = completed_by s.Schedule.ends reclaim_at in
  let done_acc = Kahan.create () in
  let overhead = Kahan.create () in
  for i = 0 to k - 1 do
    let t = periods.(i) in
    Kahan.add done_acc (pos_sub t c);
    Kahan.add overhead (min_of t c)
  done;
  settle obs spanner ~ws ~ep s ~c ~reclaim_at ~k
    ~work_done:(Kahan.total done_acc) ~overhead

let play ?(obs = Obs.disabled) ?(ws = 0) ?(ep = 0) r ~reclaim_at =
  if reclaim_at < 0.0 then invalid_arg "Episode.play: reclaim_at must be >= 0";
  let spanner = enter_span obs in
  let k = completed_by r.schedule.Schedule.ends reclaim_at in
  settle obs spanner ~ws ~ep r.schedule ~c:r.c ~reclaim_at ~k
    ~work_done:r.work_at.(k) ~overhead:r.overhead_at.(k)

let work_if_reclaimed_at s ~c t = (run s ~c ~reclaim_at:t).work_done
