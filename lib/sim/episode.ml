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

(* A float-only record, so its fields hold their floats unboxed: writing
   one boxes nothing. *)
type settlement = {
  mutable banked : float;
  mutable lost : float;
  mutable spent : float;
  mutable ended : float;
}

let settlement () = { banked = 0.0; lost = 0.0; spent = 0.0; ended = 0.0 }

(* The settlement of period [k], the first that did not complete, into
   [st]: its lost work, the overhead sum's total once that period's share
   is added to [overhead] (the state after the first [k] periods, read and
   never changed), and the episode's end. [st.banked] is the caller's. *)
let close st s ~c ~reclaim_at ~k overhead =
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  if k = n then begin
    st.lost <- 0.0;
    st.spent <- Kahan.total overhead;
    st.ended <- ends.(n - 1)
  end
  else begin
    let t_start = ends.(k) -. periods.(k) in
    if t_start < reclaim_at then begin
      (* Kill mid-period: all of this period's productive time is lost. *)
      let in_flight = reclaim_at -. t_start in
      st.lost <- pos_sub in_flight c;
      st.spent <- Kahan.total_with overhead (min_of in_flight c)
    end
    else begin
      (* The reclaim arrived in the gap at t_start = reclaim_at: episode
         over before this period started. *)
      st.lost <- 0.0;
      st.spent <- Kahan.total overhead
    end;
    st.ended <- reclaim_at
  end

let work_after r k = r.work_at.(k)

let fill r st ~reclaim_at =
  let k = completed_by r.schedule.Schedule.ends reclaim_at in
  st.banked <- r.work_at.(k);
  close st r.schedule ~c:r.c ~reclaim_at ~k r.overhead_at.(k);
  k

let settle r st ~reclaim_at =
  if reclaim_at < 0.0 then
    invalid_arg "Episode.settle: reclaim_at must be >= 0";
  fill r st ~reclaim_at

let enter_span obs =
  let spanner = Obs.span_recorder obs in
  (match spanner with
  | Some r -> Obs.Span.enter r "episode.run"
  | None -> ());
  spanner

(* The events, the closing span and the outcome of an episode whose first
   [k] periods completed and whose settlement is [st]. *)
let report obs spanner ~ws ~ep s ~c ~reclaim_at ~k st =
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  let interrupted = k < n in
  if Obs.tracing obs then begin
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
    done;
    if interrupted then begin
      let t = periods.(k) in
      let t_start = ends.(k) -. t in
      if t_start < reclaim_at then begin
        Obs.emit obs
          (Obs.Event.Period_dispatched
             { time = t_start; ws; ep; period = t; assigned = pos_sub t c });
        Obs.emit obs
          (Obs.Event.Period_killed
             {
               time = reclaim_at;
               ws;
               ep;
               lost = st.lost;
               overhead = min_of (reclaim_at -. t_start) c;
             })
      end;
      Obs.emit obs (Obs.Event.Owner_returned { time = reclaim_at; ws; ep })
    end;
    Obs.emit obs
      (Obs.Event.Episode_finished
         { time = st.ended; ws; ep; work_done = st.banked; interrupted })
  end;
  (match spanner with
  | Some r ->
      Obs.Span.exit r
        ~attrs:
          [ ("completed", Jsonx.Int k); ("interrupted", Jsonx.Bool interrupted) ]
  | None -> ());
  {
    work_done = st.banked;
    work_lost = st.lost;
    overhead = st.spent;
    periods_completed = k;
    interrupted;
    elapsed = st.ended;
  }

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
  let st = settlement () in
  st.banked <- Kahan.total done_acc;
  close st s ~c ~reclaim_at ~k overhead;
  report obs spanner ~ws ~ep s ~c ~reclaim_at ~k st

let play ?(obs = Obs.disabled) ?(ws = 0) ?(ep = 0) r ~reclaim_at =
  if reclaim_at < 0.0 then invalid_arg "Episode.play: reclaim_at must be >= 0";
  let spanner = enter_span obs in
  let st = settlement () in
  let k = fill r st ~reclaim_at in
  report obs spanner ~ws ~ep r.schedule ~c:r.c ~reclaim_at ~k st
