(* Obs_query loads JSONL traces from disk: file I/O is its job. *)
[@@@lint.allow "R4"]

type trace = {
  path : string;
  meta : Obs_meta.t option;
  events : Obs_event.t list;
}

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let events = ref [] in
          let meta = ref None in
          let line_no = ref 0 in
          let err = ref None in
          let fail msg =
            err := Some (Printf.sprintf "%s:%d: %s" path !line_no msg)
          in
          (try
             while !err = None do
               let line = input_line ic in
               Stdlib.incr line_no;
               if String.trim line <> "" then
                 match Jsonx.of_string line with
                 | Error msg -> fail msg
                 | Ok j when Obs_meta.is_meta_json j -> (
                     match Obs_meta.of_json j with
                     | Error msg -> fail msg
                     | Ok m ->
                         if !meta = None then meta := Some m
                         else fail "duplicate meta header")
                 | Ok j -> (
                     match Obs_event.of_json j with
                     | Error msg -> fail msg
                     | Ok ev -> events := ev :: !events)
             done
           with
          | End_of_file -> ()
          | Sys_error msg -> err := Some (path ^ ": " ^ msg));
          match !err with
          | Some msg -> Error msg
          | None ->
              Ok { path; meta = !meta; events = List.rev !events })

(* ------------------------------------------------------------------ *)
(* Filtering                                                          *)

let filter ?kind ?ws ?ep ?since ?until events =
  let keep ev =
    (match kind with None -> true | Some k -> Obs_event.kind ev = k)
    && (match ws with
       | None -> true
       | Some w -> (
           match Obs_event.ids ev with Some (w', _) -> w' = w | None -> false))
    && (match ep with
       | None -> true
       | Some e -> (
           match Obs_event.ids ev with Some (_, e') -> e' = e | None -> false))
    && (match since with
       | None -> true
       | Some s -> (
           match Obs_event.time ev with Some t -> t >= s | None -> false))
    &&
    match until with
    | None -> true
    | Some u -> ( match Obs_event.time ev with Some t -> t <= u | None -> false)
  in
  List.filter keep events

(* ------------------------------------------------------------------ *)
(* Per-episode timelines                                              *)

type episode_row = {
  e_ws : int;
  e_ep : int;
  e_start : float;
  e_finish : float option;
  e_dispatched : int;
  e_completed : int;
  e_killed : int;
  e_work : float;
  e_lost : float;
  e_overhead : float;
  e_interrupted : bool;
}

type episode_acc = {
  mutable x_start : float;
  mutable x_finish : float option;
  mutable x_dispatched : int;
  mutable x_completed : int;
  mutable x_killed : int;
  x_work : Kahan.t;
  x_lost : Kahan.t;
  x_overhead : Kahan.t;
  mutable x_interrupted : bool;
}

let episodes events =
  let tbl : (int * int, episode_acc) Hashtbl.t = Hashtbl.create 64 in
  let acc ws ep =
    let key = (ws, ep) in
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None ->
        let a =
          {
            x_start = Float.nan;
            x_finish = None;
            x_dispatched = 0;
            x_completed = 0;
            x_killed = 0;
            x_work = Kahan.create ();
            x_lost = Kahan.create ();
            x_overhead = Kahan.create ();
            x_interrupted = false;
          }
        in
        Hashtbl.replace tbl key a;
        a
  in
  List.iter
    (fun (ev : Obs_event.t) ->
      match ev with
      | Episode_started { time; ws; ep } -> (acc ws ep).x_start <- time
      | Period_dispatched { ws; ep; _ } ->
          let a = acc ws ep in
          a.x_dispatched <- a.x_dispatched + 1
      | Period_completed { ws; ep; banked; overhead; _ } ->
          let a = acc ws ep in
          a.x_completed <- a.x_completed + 1;
          Kahan.add a.x_work banked;
          Kahan.add a.x_overhead overhead
      | Period_killed { ws; ep; lost; overhead; _ } ->
          let a = acc ws ep in
          a.x_killed <- a.x_killed + 1;
          Kahan.add a.x_lost lost;
          Kahan.add a.x_overhead overhead
      | Episode_finished { time; ws; ep; interrupted; _ } ->
          let a = acc ws ep in
          a.x_finish <- Some time;
          a.x_interrupted <- interrupted
      | Run_started _ | Plan_computed _ | Owner_returned _ | Pool_drained _
      | Run_finished _ ->
          ())
    events;
  List.sort
    (fun a b ->
      match Int.compare a.e_ws b.e_ws with
      | 0 -> Int.compare a.e_ep b.e_ep
      | c -> c)
    (Hashtbl.fold
       (fun (ws, ep) a rows ->
         {
           e_ws = ws;
           e_ep = ep;
           e_start = a.x_start;
           e_finish = a.x_finish;
           e_dispatched = a.x_dispatched;
           e_completed = a.x_completed;
           e_killed = a.x_killed;
           e_work = Kahan.total a.x_work;
           e_lost = Kahan.total a.x_lost;
           e_overhead = Kahan.total a.x_overhead;
           e_interrupted = a.x_interrupted;
         }
         :: rows)
       tbl [])

let pp_episodes ppf rows =
  Format.fprintf ppf "  %-4s %-4s %12s %12s %6s %6s %6s %12s %12s %12s %s@."
    "ws" "ep" "start" "finish" "disp" "done" "kill" "work" "lost" "overhead"
    "int";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-4d %-4d %12.4f %12s %6d %6d %6d %12.6f %12.6f %12.6f %s@." r.e_ws
        r.e_ep r.e_start
        (match r.e_finish with
        | Some f -> Printf.sprintf "%.4f" f
        | None -> "-")
        r.e_dispatched r.e_completed r.e_killed r.e_work r.e_lost r.e_overhead
        (if r.e_interrupted then "yes" else "no"))
    rows

(* ------------------------------------------------------------------ *)
(* Run diffing                                                        *)

type divergence = {
  d_index : int;
  d_left : Obs_event.t option;
  d_right : Obs_event.t option;
  d_context : Obs_event.t list;
}

(* Events carry only floats, ints, bools and strings, and the simulator's
   determinism contract is bit-exactness — so structural equality is the
   right comparison, not a tolerance. The one exception is wall time:
   [Plan_computed.elapsed] is measured in wall seconds, which no two runs
   share, so it is zeroed before comparing — the contract covers
   simulated time, not the clock on the wall. *)
let canonical (ev : Obs_event.t) =
  match ev with
  | Plan_computed p -> Obs_event.Plan_computed { p with elapsed = 0.0 }
  | _ -> ev

let diff ?(context = 3) left right =
  let rec go i recent left right =
    match (left, right) with
    | [], [] -> None
    | l :: ls, r :: rs when canonical l = canonical r ->
        go (i + 1) (l :: recent) ls rs
    | l, r ->
        let take_context =
          let rec take n = function
            | x :: xs when n > 0 -> x :: take (n - 1) xs
            | _ -> []
          in
          List.rev (take context recent)
        in
        Some
          {
            d_index = i;
            d_left = (match l with x :: _ -> Some x | [] -> None);
            d_right = (match r with x :: _ -> Some x | [] -> None);
            d_context = take_context;
          }
  in
  go 0 [] left right

let pp_divergence ppf d =
  Format.fprintf ppf "traces diverge at event %d@." d.d_index;
  if d.d_context <> [] then begin
    Format.fprintf ppf "  shared context before divergence:@.";
    List.iteri
      (fun i ev ->
        Format.fprintf ppf "    [%d] %a@."
          (d.d_index - List.length d.d_context + i)
          Obs_event.pp ev)
      d.d_context
  end;
  (match d.d_left with
  | Some ev -> Format.fprintf ppf "  left : %a@." Obs_event.pp ev
  | None -> Format.fprintf ppf "  left : <trace ended>@.");
  match d.d_right with
  | Some ev -> Format.fprintf ppf "  right: %a@." Obs_event.pp ev
  | None -> Format.fprintf ppf "  right: <trace ended>@."

(* ------------------------------------------------------------------ *)
(* Metrics reconstruction                                             *)

let metrics_of_events ?accuracy events =
  let reg = Obs_metrics.create ?accuracy () in
  let c name = Obs_metrics.counter reg name in
  let h name = Obs_metrics.histogram reg name in
  (* A histogram takes finite values >= 0; a decoded trace can break
     that (a negative field, a finish before its start), and such a
     value is left out rather than raised on. *)
  let observe h v =
    if Float.is_finite v && v >= 0.0 then Obs_metrics.observe h v
  in
  let episodes_started = c "trace.episodes_started" in
  let episodes_finished = c "trace.episodes_finished" in
  let periods_dispatched = c "trace.periods_dispatched" in
  let periods_completed = c "trace.periods_completed" in
  let periods_killed = c "trace.periods_killed" in
  let period_length = h "trace.period_length" in
  let episode_duration = h "trace.episode_duration" in
  let banked_h = h "trace.banked" in
  let overhead_h = h "trace.overhead" in
  let pool_remaining = Obs_metrics.gauge reg "trace.pool_remaining" in
  let starts : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Obs_event.t) ->
      match ev with
      | Episode_started { time; ws; ep } ->
          Obs_metrics.incr episodes_started;
          Hashtbl.replace starts (ws, ep) time
      | Episode_finished { time; ws; ep; _ } -> (
          Obs_metrics.incr episodes_finished;
          match Hashtbl.find_opt starts (ws, ep) with
          | Some t0 -> observe episode_duration (time -. t0)
          | None -> ())
      | Period_dispatched { period; _ } ->
          Obs_metrics.incr periods_dispatched;
          observe period_length period
      | Period_completed { banked; overhead; _ } ->
          Obs_metrics.incr periods_completed;
          observe banked_h banked;
          observe overhead_h overhead
      | Period_killed { overhead; _ } ->
          Obs_metrics.incr periods_killed;
          observe overhead_h overhead
      | Pool_drained { remaining; _ } ->
          Obs_metrics.set pool_remaining remaining
      | Run_started _ | Plan_computed _ | Owner_returned _ | Run_finished _ ->
          ())
    events;
  reg
