(* Remote sink: ship events to an Obs_collect collector without ever
   blocking the instrumented code. The emitting thread only pushes
   into a bounded in-memory ring under a mutex; a dedicated sender
   thread drains it over the socket, reconnecting with capped backoff
   and counting everything it cannot deliver instead of waiting. *)

let default_capacity = 65536
let default_max_backoff_s = 1.0
let heartbeat_every = 1000

(* Connect attempts once [close] has been called: enough to survive a
   momentary collector restart during shutdown, small enough that an
   unreachable address cannot wedge process exit. Retry bounds are
   attempt counts, never clock reads (R8). *)
let closing_attempts = 3

type stats = { sent : int; dropped : int; hellos : int }

type t = {
  addr : Obs_http.addr;
  meta : Obs_meta.t;
  capacity : int;
  max_backoff_s : float;
  mu : Mutex.t;
  cond : Condition.t;
  queue : Obs_event.t Queue.t;
  mutable closing : bool;
  mutable seq : int;  (** last wire sequence number used *)
  mutable sent : int;
  mutable dropped : int;
  mutable hellos : int;
  mutable thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Unix.write loop that reports failure instead of swallowing it:
   unlike Obs_http.write_all (whose whole job is to ignore a scraper
   that hung up), the sender must notice a dead collector so it can
   reconnect and account the loss. *)
let send_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go pos =
    if pos >= len then true
    else
      match Unix.write fd b pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error _ -> false
  in
  go 0

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One connect + HELLO attempt. A connection is only "up" once the
   provenance header is on the wire, so every segment the collector
   sees is self-describing. *)
let connect_once t =
  let domain, sockaddr = Obs_http.sockaddr_of t.addr in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      match Unix.connect fd sockaddr with
      | exception Unix.Unix_error _ ->
          close_fd fd;
          None
      | () ->
          if send_all fd (Obs_stream.encode (Obs_stream.Hello t.meta)) then begin
            locked t (fun () -> t.hellos <- t.hellos + 1);
            Some fd
          end
          else begin
            close_fd fd;
            None
          end)

(* Retry with doubling backoff capped at [max_backoff_s]. While the
   sink is open this loops until it connects (the ring keeps absorbing
   and dropping in the meantime); once [close] has been called the
   attempts are bounded so shutdown terminates. *)
let ensure_connected t = function
  | Some fd -> Some fd
  | None ->
      let rec go attempt delay =
        match connect_once t with
        | Some fd -> Some fd
        | None ->
            let closing = locked t (fun () -> t.closing) in
            if closing && attempt >= closing_attempts then None
            else begin
              Unix.sleepf delay;
              go (attempt + 1) (Float.min (delay *. 2.) t.max_backoff_s)
            end
      in
      go 1 0.05

let finish t = function
  | None -> ()
  | Some fd ->
      let seq, dropped = locked t (fun () -> (t.seq, t.dropped)) in
      ignore (send_all fd (Obs_stream.encode (Obs_stream.Bye { seq; dropped })));
      close_fd fd

let rec sender_loop t fd_opt =
  let pending =
    locked t (fun () ->
        while Queue.is_empty t.queue && not t.closing do
          Condition.wait t.cond t.mu
        done;
        not (Queue.is_empty t.queue))
  in
  if not pending then finish t fd_opt
  else
    match ensure_connected t fd_opt with
    | None ->
        (* Only reachable when closing: the collector stayed
           unreachable through the bounded attempts, so everything
           still queued is recorded as dropped, not silently lost. *)
        locked t (fun () ->
            t.dropped <- t.dropped + Queue.length t.queue;
            Queue.clear t.queue);
        finish t None
    | Some fd -> (
        (* Only the sender pops, so the queue observed non-empty above
           is still non-empty here. *)
        let event = locked t (fun () -> Queue.pop t.queue) in
        let seq = t.seq + 1 in
        t.seq <- seq;
        if send_all fd (Obs_stream.encode (Obs_stream.Event { seq; event }))
        then begin
          let sent, dropped =
            locked t (fun () ->
                t.sent <- t.sent + 1;
                (t.sent, t.dropped))
          in
          if sent mod heartbeat_every = 0 then
            if
              send_all fd
                (Obs_stream.encode (Obs_stream.Heartbeat { seq; dropped }))
            then sender_loop t (Some fd)
            else begin
              (* The event itself landed; only the connection is gone. *)
              close_fd fd;
              sender_loop t None
            end
          else sender_loop t (Some fd)
        end
        else begin
          (* At-most-once: the event that hit the dead connection is
             counted dropped rather than retried, so a collector that
             half-received it can never see it twice. *)
          close_fd fd;
          locked t (fun () -> t.dropped <- t.dropped + 1);
          sender_loop t None
        end)

let create ?(capacity = default_capacity)
    ?(max_backoff_s = default_max_backoff_s) ~addr ~meta () =
  let t =
    {
      addr;
      meta;
      capacity = Stdlib.max 1 capacity;
      max_backoff_s = Float.max 0.05 max_backoff_s;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      closing = false;
      seq = 0;
      sent = 0;
      dropped = 0;
      hellos = 0;
      thread = None;
    }
  in
  (* A write to a collector that hung up must come back as EPIPE, which
     [send_all] turns into a counted drop and a reconnect; the default
     SIGPIPE action would kill the producer instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  t.thread <- Some (Thread.create (fun () -> sender_loop t None) ());
  t

let enqueue t ev =
  locked t (fun () ->
      if t.closing || Queue.length t.queue >= t.capacity then
        t.dropped <- t.dropped + 1
      else begin
        Queue.push ev t.queue;
        Condition.signal t.cond
      end)

let sink t = Obs_sink.Custom (enqueue t)
let addr t = t.addr

let stats t =
  locked t (fun () -> { sent = t.sent; dropped = t.dropped; hellos = t.hellos })

let close t =
  let th =
    locked t (fun () ->
        if t.closing then None
        else begin
          t.closing <- true;
          Condition.broadcast t.cond;
          let th = t.thread in
          t.thread <- None;
          th
        end)
  in
  match th with Some th -> Thread.join th | None -> ()
