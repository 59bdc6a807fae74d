(* One of the four modules lint R13 lets touch sockets, with the
   streaming transport (obs_stream, obs_remote, obs_collect): everything
   protocol-shaped is a pure string function so the socket code stays a
   thin accept/read/write shell around it. *)

type request = { meth : string; path : string; version : string }

let max_head_bytes = 8192

(* Whether a head terminator (CRLFCRLF, or the bare LFLF of hand-typed
   clients) ends at byte [i] of [get]. It looks back at most three
   bytes, so a scan that visits each byte once, in arrival order, is
   linear and finds the earliest terminator however the reads split
   the input. *)
let ends_head get i =
  get i = '\n'
  && ((i >= 1 && get (i - 1) = '\n')
     || i >= 3
        && get (i - 1) = '\r'
        && get (i - 2) = '\n'
        && get (i - 3) = '\r')

let read_head ?(max_len = max_head_bytes) read =
  let buf = Buffer.create 256 in
  let get = Buffer.nth buf in
  let chunk = Bytes.create 512 in
  let rec scan n j =
    if j = n then fill ()
    else
      let i = Buffer.length buf in
      if i >= max_len then Error `Too_large
      else begin
        Buffer.add_char buf (Bytes.get chunk j);
        if ends_head get i then Ok (Buffer.contents buf) else scan n (j + 1)
      end
  and fill () =
    let n = read chunk 0 (Bytes.length chunk) in
    if n <= 0 then Error `Eof else scan n 0
  in
  fill ()

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] when meth <> "" && target <> "" ->
      if
        String.length version < 5 || String.sub version 0 5 <> "HTTP/"
      then Error (Printf.sprintf "not an HTTP version: %S" version)
      else
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        Ok { meth; path; version }
  | _ -> Error (Printf.sprintf "malformed request line %S" line)

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let response ~status ?(content_type = "text/plain; charset=utf-8") body =
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status (status_reason status) content_type (String.length body) body

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

type source = {
  metrics : unit -> string list;
  health : unit -> int * string;
}

let text = "text/plain; charset=utf-8"

let handle source req =
  if req.meth <> "GET" then (405, text, "method not allowed\n")
  else
    match req.path with
    | "/" -> (200, text, "endpoints: /metrics /health\n")
    | "/metrics" -> (
        let lines = source.metrics () in
        (* Never hand a scraper text the grammar validator rejects:
           better a loud 500 than a silently dropped scrape. *)
        match Obs_export.validate_prometheus lines with
        | Ok _ ->
            ( 200,
              "text/plain; version=0.0.4; charset=utf-8",
              String.concat "" (List.map (fun l -> l ^ "\n") lines) )
        | Error e ->
            (500, text, "exposition failed validation: " ^ e ^ "\n"))
    | "/health" ->
        let status, body = source.health () in
        (status, text, body)
    | _ -> (404, text, "not found\n")

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))
    | None ->
        Error
          (Printf.sprintf
             "bad address %S (want unix:PATH or HOST:PORT)" s)

let pp_addr ppf = function
  | Unix_sock p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "%s:%d" h p

let sockaddr_of = function
  | Unix_sock p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  | Tcp (host, port) ->
      let ip =
        match Unix.inet_addr_of_string host with
        | ip -> ip
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                Unix.inet_addr_loopback
            | h -> h.Unix.h_addr_list.(0))
      in
      (Unix.PF_INET, Unix.ADDR_INET (ip, port))

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go pos =
    if pos < Bytes.length b then
      match Unix.write fd b pos (Bytes.length b - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
        ->
          ()
  in
  go 0

let first_line s =
  let line =
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  if line <> "" && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

let handle_connection fd source =
  let read buf pos len =
    try Unix.read fd buf pos len with Unix.Unix_error _ -> 0
  in
  match read_head read with
  | Error `Too_large ->
      write_all fd (response ~status:431 "request head too large\n")
  | Error `Eof -> ()
  | Ok head -> (
      match parse_request_line (first_line head) with
      | Error e ->
          write_all fd (response ~status:400 ("bad request: " ^ e ^ "\n"))
      | Ok req ->
          let status, content_type, body = handle source req in
          write_all fd (response ~status ~content_type body))

let listen_on addr =
  let domain, sockaddr = sockaddr_of addr in
  (match addr with
  | Unix_sock p when Sys.file_exists p -> (
      try Sys.remove p with Sys_error _ -> ())
  | _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    if domain = Unix.PF_INET then
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sockaddr;
    Unix.listen fd 16
  with
  | () ->
      (* Port 0 binds an ephemeral port; report the one we got. *)
      let addr =
        match (addr, Unix.getsockname fd) with
        | Tcp (h, _), Unix.ADDR_INET (_, port) -> Tcp (h, port)
        | _ -> addr
      in
      Ok (fd, addr)
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error
        (Format.asprintf "cannot listen on %a: %s" pp_addr addr
           (Unix.error_message e))

(* Unlink before closing: once the listener is closed a client's connect
   fails, and by then the socket path must already be gone. *)
let cleanup fd addr =
  (match addr with
  | Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec serve_loop stop fd source =
  if not (Atomic.get stop) then
    match Unix.accept fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve_loop stop fd source
    | exception Unix.Unix_error _ -> ()
    | conn, _ ->
        if Atomic.get stop then Unix.close conn
        else begin
          Fun.protect
            ~finally:(fun () ->
              try Unix.close conn with Unix.Unix_error _ -> ())
            (fun () -> handle_connection conn source);
          serve_loop stop fd source
        end

type server = {
  s_thread : Thread.t;
  s_stop : bool Atomic.t;
  s_addr : addr;
}

let serve_in_background ~addr source =
  match listen_on addr with
  | Error _ as e -> e
  | Ok (fd, bound) ->
      let stop = Atomic.make false in
      let thread =
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> cleanup fd bound)
              (fun () -> serve_loop stop fd source))
          ()
      in
      Ok { s_thread = thread; s_stop = stop; s_addr = bound }

let address s = s.s_addr

let shutdown s =
  if not (Atomic.exchange s.s_stop true) then begin
    (* The loop re-checks the flag after every accept; a throwaway
       connection unblocks an accept that is already parked. *)
    (let domain, sockaddr = sockaddr_of s.s_addr in
     match Unix.socket domain Unix.SOCK_STREAM 0 with
     | exception Unix.Unix_error _ -> ()
     | fd ->
         (try Unix.connect fd sockaddr with Unix.Unix_error _ -> ());
         (try Unix.close fd with Unix.Unix_error _ -> ()));
    Thread.join s.s_thread
  end

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error _ -> Buffer.contents buf
  in
  go ()

let fetch ?(attempts = 100) ~addr path =
  let domain, sockaddr = sockaddr_of addr in
  (* Startup polling is bounded by attempt count, not by a deadline:
     fetch never reads the clock (R8). *)
  let rec connect n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Ok fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when n > 1 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        connect (n - 1)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Format.asprintf "cannot connect to %a: %s" pp_addr addr
           (Unix.error_message e))
  in
  match connect (Stdlib.max 1 attempts) with
  | Error _ as e -> e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd
            (Printf.sprintf
               "GET %s HTTP/1.1\r\nHost: cs\r\nConnection: close\r\n\r\n"
               path);
          let raw = read_all fd in
          let head_len =
            let get = String.get raw in
            let rec scan i =
              if i >= String.length raw then -1
              else if ends_head get i then i + 1
              else scan (i + 1)
            in
            scan 0
          in
          if head_len < 0 then Error "malformed response: no header end"
          else
            let body =
              String.sub raw head_len (String.length raw - head_len)
            in
            match
              String.split_on_char ' ' (first_line raw)
            with
            | _ :: code :: _ -> (
                match int_of_string_opt code with
                | Some status -> Ok (status, body)
                | None ->
                    Error
                      (Printf.sprintf "malformed status line %S"
                         (first_line raw)))
            | _ ->
                Error
                  (Printf.sprintf "malformed status line %S"
                     (first_line raw)))
