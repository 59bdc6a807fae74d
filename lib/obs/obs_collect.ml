(* The collector: accept N producers speaking the Obs_stream protocol,
   write each stream back out as an ordinary JSONL trace, fold every
   event into one live aggregated metrics registry served over
   Obs_http, and run the Obs_health rules against that registry as the
   streams advance, emitting firing/resolved alert transitions.

   Concurrency model: one thread per connection, one global mutex.
   Every frame is handled under the lock — ingest, trace append,
   metrics fold, alert evaluation — so the aggregated registry and the
   alert state machine see a single serialized event stream. The
   per-producer files stay ordered because Obs_stream.ingest enforces
   consecutive sequence numbers per connection before a line is
   written. *)

(* ------------------------------------------------------------------ *)
(* Alert state machine                                                 *)

type transition = {
  tr_rule : Obs_health.rule;
  tr_firing : bool;  (** [true] = fired on this observation *)
  tr_value : float option;  (** offending value when firing *)
}

module Alerts = struct
  type t = { rules : Obs_health.rule list; firing : bool array }

  let create rules = { rules; firing = Array.make (List.length rules) false }

  (* Evaluate every rule against one snapshot of the live registry and
     report edges only. A rule is firing while its status is [Fail];
     [Missing]/[Skipped] are not alerts — early in a stream most
     selectors have no data yet, and that must not page anyone. *)
  let observe t snap =
    let report = Obs_health.evaluate ~rules:t.rules [ (None, snap) ] in
    List.concat
      (List.mapi
         (fun i (rule, status) ->
           let now, value =
             match (status : Obs_health.status) with
             | Fail { value; _ } -> (true, Some value)
             | Pass | Missing | Skipped -> (false, None)
           in
           if now = t.firing.(i) then []
           else begin
             t.firing.(i) <- now;
             [ { tr_rule = rule; tr_firing = now; tr_value = value } ]
           end)
         report.Obs_health.outcomes)

  let any_firing t = Array.exists Fun.id t.firing
end

(* ------------------------------------------------------------------ *)
(* Collector state                                                     *)

type stream_summary = {
  ss_run_id : string;
  ss_events : int;
  ss_dropped : int;  (** producer-reported drop counter *)
  ss_truncated : bool;  (** ended without BYE *)
  ss_path : string option;  (** final resting place of the trace *)
}

type summary = {
  streams : stream_summary list;  (** in finalization order *)
  total_events : int;
  rejected : int;  (** protocol-violating or unreadable frames *)
  alerts_fired : int;
  alerts_resolved : int;
}

type state = {
  mu : Mutex.t;
  reg : Obs_metrics.t;
  feed : Obs_event.t -> unit;
  alerts : Alerts.t;
  out_dir : string option;
  alert_every : int;
  log : string -> unit;
  c_streams_opened : Obs_metrics.counter;
  c_streams_finalized : Obs_metrics.counter;
  c_streams_truncated : Obs_metrics.counter;
  c_events : Obs_metrics.counter;
  c_rejected : Obs_metrics.counter;
  c_producer_dropped : Obs_metrics.counter;
  c_alerts_fired : Obs_metrics.counter;
  c_alerts_resolved : Obs_metrics.counter;
  g_connected : Obs_metrics.gauge;
  mutable connected : int;
  mutable finalized : int;
  mutable total_events : int;
  mutable rejected : int;
  mutable alerts_fired : int;
  mutable alerts_resolved : int;
  mutable summaries : stream_summary list;  (** reverse order *)
  mutable threads : Thread.t list;
}

let locked st f =
  Mutex.lock st.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

(* Call with [st.mu] held. *)
let eval_alerts st =
  let transitions = Alerts.observe st.alerts (Obs_metrics.snapshot st.reg) in
  List.iter
    (fun tr ->
      if tr.tr_firing then begin
        st.alerts_fired <- st.alerts_fired + 1;
        Obs_metrics.incr st.c_alerts_fired;
        st.log
          (Format.asprintf "ALERT firing: %a%s" Obs_health.pp_rule tr.tr_rule
             (match tr.tr_value with
             | Some v -> Printf.sprintf " (value %.6g)" v
             | None -> ""))
      end
      else begin
        st.alerts_resolved <- st.alerts_resolved + 1;
        Obs_metrics.incr st.c_alerts_resolved;
        st.log
          (Format.asprintf "ALERT resolved: %a" Obs_health.pp_rule tr.tr_rule)
      end)
    transitions

(* ------------------------------------------------------------------ *)
(* Per-stream output file                                              *)

type stream_out = {
  so_run_id : string;
  so_path : string option;  (** where lines are being written *)
  so_oc : out_channel option;
}

(* Pick a fresh path under [dir]; two producers with the same
   provenance triple (same id) must not clobber each other's file.
   Called with the lock held, so existence checks don't race. *)
let fresh_path dir run_id =
  let base = Filename.concat dir run_id in
  if not (Sys.file_exists (base ^ ".jsonl")) then base ^ ".jsonl"
  else
    let rec go n =
      let p = Printf.sprintf "%s-%d.jsonl" base n in
      if Sys.file_exists p then go (n + 1) else p
    in
    go 2

(* Call with [st.mu] held. *)
let open_stream st meta =
  let run_id = Obs_meta.run_id meta in
  let path =
    Option.map
      (fun dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        fresh_path dir run_id)
      st.out_dir
  in
  let oc =
    Option.map
      (fun p ->
        let oc = open_out p in
        output_string oc (Jsonx.to_string (Obs_meta.to_json meta));
        output_char oc '\n';
        oc)
      path
  in
  Obs_metrics.incr st.c_streams_opened;
  st.connected <- st.connected + 1;
  Obs_metrics.set st.g_connected (float_of_int st.connected);
  { so_run_id = run_id; so_path = path; so_oc = oc }

(* Finalize one stream: append the truncation marker when the producer
   vanished without BYE, close the trace, and account it.
   Call with [st.mu] held; [ingest] is private to the (finished)
   connection thread. *)
let finalize_stream st out ingest ~expected =
  let truncated = not (Obs_stream.ingest_closed ingest) in
  let events = Obs_stream.ingest_events ingest in
  let dropped = Obs_stream.ingest_dropped ingest in
  Option.iter
    (fun oc ->
      if truncated then begin
        output_string oc
          (Jsonx.to_string (Obs_stream.truncation_marker ~events));
        output_char oc '\n'
      end;
      close_out oc)
    out.so_oc;
  Obs_metrics.incr st.c_streams_finalized;
  if truncated then begin
    Obs_metrics.incr st.c_streams_truncated;
    st.log
      (Printf.sprintf "stream %s truncated after %d event(s) (no BYE)"
         out.so_run_id events)
  end;
  Obs_metrics.add st.c_producer_dropped dropped;
  st.connected <- st.connected - 1;
  Obs_metrics.set st.g_connected (float_of_int st.connected);
  st.summaries <-
    {
      ss_run_id = out.so_run_id;
      ss_events = events;
      ss_dropped = dropped;
      ss_truncated = truncated;
      ss_path = out.so_path;
    }
    :: st.summaries;
  st.finalized <- st.finalized + 1;
  (* Finalization is an observation point even when the event count
     does not line up with [alert_every]. *)
  eval_alerts st;
  st.finalized >= expected

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)

let read_of_fd fd buf pos len =
  try Unix.read fd buf pos len with Unix.Unix_error _ -> 0

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Throwaway connect to our own listen address: unparks the accept
   loop after [stop] is raised (Obs_http.shutdown does the same). *)
let unpark addr =
  let domain, sockaddr = Obs_http.sockaddr_of addr in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd sockaddr with Unix.Unix_error _ -> ());
      close_fd fd

let serve_conn st ~stop ~listen_addr ~expected ~once conn =
  let ingest = Obs_stream.ingest_create () in
  let out = ref None in
  let reject msg =
    locked st (fun () ->
        st.rejected <- st.rejected + 1;
        Obs_metrics.incr st.c_rejected;
        st.log ("rejected frame: " ^ msg))
  in
  let finalize () =
    let all_done =
      locked st (fun () ->
          match !out with
          | None -> false
          | Some o ->
              out := None;
              finalize_stream st o ingest ~expected)
    in
    if all_done && once then begin
      Atomic.set stop true;
      unpark listen_addr
    end
  in
  let rec loop () =
    match Obs_stream.read_frame (read_of_fd conn) with
    | Error `Eof -> ()
    | Error e ->
        reject (Format.asprintf "%a" Obs_stream.pp_read_error e)
    | Ok frame -> (
        let verdict =
          locked st (fun () ->
              match Obs_stream.ingest ingest frame with
              | Obs_stream.Reject _ as v -> v
              | v ->
                  (match v with
                  | Obs_stream.Ok_hello meta ->
                      if !out = None then out := Some (open_stream st meta)
                  | Obs_stream.Ok_event ev ->
                      Option.iter
                        (fun o ->
                          Option.iter
                            (fun oc ->
                              output_string oc
                                (Jsonx.to_string (Obs_event.to_json ev));
                              output_char oc '\n')
                            o.so_oc)
                        !out;
                      st.feed ev;
                      st.total_events <- st.total_events + 1;
                      Obs_metrics.incr st.c_events;
                      if st.total_events mod st.alert_every = 0 then
                        eval_alerts st
                  | Obs_stream.Ok_heartbeat | Obs_stream.Ok_bye
                  | Obs_stream.Reject _ ->
                      ());
                  v)
        in
        match verdict with
        | Obs_stream.Reject msg -> reject msg
        | Obs_stream.Ok_bye -> ()
        | _ -> loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      close_fd conn;
      finalize ())
    loop

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let run ?http ?(producers = 1) ?(once = false) ?out_dir ?(rules = [])
    ?(alert_every = 64) ?(log = fun _ -> ()) ?(ready = fun _ -> ()) ~listen
    () =
  let ( let* ) = Result.bind in
  let reg, feed = Obs_query.metrics_updater () in
  let st =
    {
      mu = Mutex.create ();
      reg;
      feed;
      alerts = Alerts.create rules;
      out_dir;
      alert_every = Stdlib.max 1 alert_every;
      log;
      c_streams_opened = Obs_metrics.counter reg "collect.streams_opened";
      c_streams_finalized = Obs_metrics.counter reg "collect.streams_finalized";
      c_streams_truncated = Obs_metrics.counter reg "collect.streams_truncated";
      c_events = Obs_metrics.counter reg "collect.events";
      c_rejected = Obs_metrics.counter reg "collect.frames_rejected";
      c_producer_dropped = Obs_metrics.counter reg "collect.producer_dropped";
      c_alerts_fired = Obs_metrics.counter reg "collect.alerts_fired";
      c_alerts_resolved = Obs_metrics.counter reg "collect.alerts_resolved";
      g_connected = Obs_metrics.gauge reg "collect.producers_connected";
      connected = 0;
      finalized = 0;
      total_events = 0;
      rejected = 0;
      alerts_fired = 0;
      alerts_resolved = 0;
      summaries = [];
      threads = [];
    }
  in
  Obs_metrics.set st.g_connected 0.;
  let* lfd, bound = Obs_http.listen_on listen in
  let stop = Atomic.make false in
  (* Live exposition over the aggregated registry: /metrics for a
     scraper, /health mirroring the alert machine (503 while any rule
     fires). *)
  let* server =
    match http with
    | None -> Ok None
    | Some http_addr ->
        let source =
          {
            Obs_http.metrics =
              (fun () -> locked st (fun () -> Obs_export.prometheus reg));
            health =
              (fun () ->
                locked st (fun () ->
                    if Alerts.any_firing st.alerts then
                      (503, "alerts firing\n")
                    else (200, "ok\n")));
          }
        in
        let* srv = Obs_http.serve_in_background ~addr:http_addr source in
        Ok (Some srv)
  in
  ready bound;
  let rec accept_loop () =
    if not (Atomic.get stop) then
      match Unix.accept lfd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
      | conn, _ ->
          if Atomic.get stop then close_fd conn
          else begin
            let th =
              Thread.create
                (serve_conn st ~stop ~listen_addr:bound ~expected:producers
                   ~once)
                conn
            in
            locked st (fun () -> st.threads <- th :: st.threads);
            accept_loop ()
          end
  in
  accept_loop ();
  Obs_http.cleanup lfd bound;
  List.iter Thread.join (locked st (fun () -> st.threads));
  locked st (fun () ->
      (* Late observation point: rules that only resolve once every
         stream landed still get their edge. *)
      eval_alerts st);
  Option.iter Obs_http.shutdown server;
  Ok
    (locked st (fun () ->
         {
           streams = List.rev st.summaries;
           total_events = st.total_events;
           rejected = st.rejected;
           alerts_fired = st.alerts_fired;
           alerts_resolved = st.alerts_resolved;
         }))

let pp_summary ppf s =
  Format.fprintf ppf "collected %d stream(s), %d event(s), %d rejected frame(s)"
    (List.length s.streams) s.total_events s.rejected;
  if s.alerts_fired > 0 || s.alerts_resolved > 0 then
    Format.fprintf ppf ", alerts fired %d resolved %d" s.alerts_fired
      s.alerts_resolved;
  List.iter
    (fun ss ->
      Format.fprintf ppf "@.  stream %s: %d event(s)%s%s%s" ss.ss_run_id
        ss.ss_events
        (if ss.ss_dropped > 0 then
           Printf.sprintf ", %d dropped at producer" ss.ss_dropped
         else "")
        (if ss.ss_truncated then ", truncated" else "")
        (match ss.ss_path with Some p -> " -> " ^ p | None -> ""))
    s.streams
