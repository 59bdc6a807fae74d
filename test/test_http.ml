(* The HTTP exposition layer (Obs_http): the pure protocol core —
   head accumulation over partial reads, request-line parsing, response
   framing, routing — and one loopback round trip per address family
   through serve_in_background/fetch. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A reader over a fixed string yielding at most [chunk] bytes per call
   — the socket partial-read case, made deterministic. *)
let string_reader ?(chunk = max_int) s =
  let pos = ref 0 in
  fun buf off len ->
    let n = Stdlib.min (Stdlib.min len chunk) (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

(* ------------------------------------------------------------------ *)
(* read_head                                                           *)

let test_read_head_partial_reads () =
  let head = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
  (* One byte per read: the head must still assemble, and the body
     bytes after the terminator must not be consumed into it. *)
  (match Obs_http.read_head (string_reader ~chunk:1 (head ^ "BODY")) with
  | Ok h -> Alcotest.(check string) "byte-at-a-time" head h
  | Error _ -> Alcotest.fail "rejected a well-formed head");
  (match Obs_http.read_head (string_reader (head ^ "BODY")) with
  | Ok h -> Alcotest.(check string) "single gulp" head h
  | Error _ -> Alcotest.fail "rejected a well-formed head");
  (* Hand-typed clients send bare LF. *)
  (match Obs_http.read_head (string_reader "GET / HTTP/1.0\n\nrest") with
  | Ok h -> Alcotest.(check string) "bare LFLF" "GET / HTTP/1.0\n\n" h
  | Error _ -> Alcotest.fail "rejected a bare-LF head");
  (* The earliest terminator of either kind ends the head, whether the
     bytes arrive in one read or one at a time. *)
  let mixed = "GET / HTTP/1.1\n\nX\r\n\r\n" in
  List.iter
    (fun chunk ->
      match Obs_http.read_head (string_reader ~chunk mixed) with
      | Ok h ->
          Alcotest.(check string) "earliest terminator" "GET / HTTP/1.1\n\n" h
      | Error _ -> Alcotest.fail "rejected a terminated head")
    [ 1; max_int ]

(* Heads assembled from request-ish fragments, including stray CR and
   LF, so terminators of both kinds land at every split offset. *)
let prop_read_head_split_invariant =
  let fragments =
    [ "GET"; " "; "/metrics"; "HTTP/1.1"; "\r\n"; "\n"; "\r"; "Host: x" ]
  in
  QCheck.Test.make ~name:"split-invariant" ~count:300
    QCheck.(
      make
        ~print:(fun s -> Printf.sprintf "%S" s)
        Gen.(map (String.concat "") (list_size (0 -- 24) (oneofl fragments))))
    (fun input ->
      let read chunk =
        match Obs_http.read_head ~max_len:64 (string_reader ~chunk input) with
        | r -> r
        | exception e ->
            QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      in
      let whole = read max_int in
      List.for_all (fun chunk -> read chunk = whole) [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_read_head_eof_and_cap () =
  (match Obs_http.read_head (string_reader "GET / HTTP/1.1\r\n") with
  | Error `Eof -> ()
  | Ok _ | Error `Too_large -> Alcotest.fail "missed the truncated head");
  (match
     Obs_http.read_head ~max_len:16 (string_reader (String.make 100 'a'))
   with
  | Error `Too_large -> ()
  | Ok _ | Error `Eof -> Alcotest.fail "missed the oversized head");
  (* The cap is on unterminated growth: a short head under the cap is
     fine even with a tiny limit. *)
  (match Obs_http.read_head ~max_len:8 (string_reader "A\r\n\r\n") with
  | Ok h -> Alcotest.(check string) "under the cap" "A\r\n\r\n" h
  | Error _ -> Alcotest.fail "capped a head under the limit");
  (* Rejecting a trickled oversized head is linear: each byte is
     scanned once, not the whole buffer again per read. *)
  let reader = string_reader ~chunk:1 (String.make 8_201 'a') in
  let before = Gc.minor_words () in
  let result = Obs_http.read_head reader in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "oversized trickle rejected" true
    (result = Error `Too_large);
  Alcotest.(check bool)
    (Printf.sprintf "under 1M minor words (%.0f)" words)
    true (words < 1e6)

(* ------------------------------------------------------------------ *)
(* Request lines and response framing                                  *)

let test_parse_request_line () =
  let r = ok (Obs_http.parse_request_line "GET /metrics HTTP/1.1") in
  Alcotest.(check string) "meth" "GET" r.Obs_http.meth;
  Alcotest.(check string) "path" "/metrics" r.Obs_http.path;
  Alcotest.(check string) "version" "HTTP/1.1" r.Obs_http.version;
  (* Queries are ignored, not errors. *)
  Alcotest.(check string) "query stripped" "/health"
    (ok (Obs_http.parse_request_line "GET /health?pretty=1 HTTP/1.1"))
      .Obs_http.path;
  List.iter
    (fun (label, line) ->
      match Obs_http.parse_request_line line with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("two parts", "GET /x");
      ("empty line", "");
      ("double space", "GET  /x HTTP/1.1");
      ("non-HTTP version", "GET /x FTP/1.0");
      ("empty method", " /x HTTP/1.1");
    ]

let test_response_framing () =
  let r = Obs_http.response ~status:503 "down\n" in
  Alcotest.(check bool) "status line" true
    (String.starts_with ~prefix:"HTTP/1.1 503 Service Unavailable\r\n" r);
  Alcotest.(check bool) "content length" true
    (contains_sub r "Content-Length: 5\r\n");
  Alcotest.(check bool) "connection close" true
    (contains_sub r "Connection: close\r\n");
  Alcotest.(check bool) "blank line then body" true
    (String.ends_with ~suffix:"\r\n\r\ndown\n" r);
  Alcotest.(check bool) "content type override" true
    (contains_sub
       (Obs_http.response ~status:200 ~content_type:"application/json" "[]")
       "Content-Type: application/json\r\n");
  Alcotest.(check string) "unknown code reason" "Status"
    (Obs_http.status_reason 418)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let source ?(metrics = [ "# TYPE cs_up gauge"; "cs_up 1" ])
    ?(health = (200, "ok\n")) () =
  { Obs_http.metrics = (fun () -> metrics); health = (fun () -> health) }

let get path = { Obs_http.meth = "GET"; path; version = "HTTP/1.1" }

let test_handle_routing () =
  let s = source () in
  let status, ctype, body = Obs_http.handle s (get "/metrics") in
  Alcotest.(check int) "metrics ok" 200 status;
  Alcotest.(check string) "prometheus content type"
    "text/plain; version=0.0.4; charset=utf-8" ctype;
  Alcotest.(check string) "lines joined" "# TYPE cs_up gauge\ncs_up 1\n" body;
  let status, _, body = Obs_http.handle s (get "/health") in
  Alcotest.(check int) "health passthrough" 200 status;
  Alcotest.(check string) "health body" "ok\n" body;
  let status, _, _ =
    Obs_http.handle (source ~health:(503, "rule fired\n") ()) (get "/health")
  in
  Alcotest.(check int) "unhealthy is 503" 503 status;
  let status, _, body = Obs_http.handle s (get "/") in
  Alcotest.(check int) "index page" 200 status;
  Alcotest.(check bool) "lists the endpoints" true
    (contains_sub body "/metrics");
  let status, _, _ = Obs_http.handle s (get "/nope") in
  Alcotest.(check int) "unknown path" 404 status;
  let status, _, _ =
    Obs_http.handle s { Obs_http.meth = "POST"; path = "/metrics"; version = "HTTP/1.1" }
  in
  Alcotest.(check int) "non-GET" 405 status

let test_handle_failures_are_500 () =
  (* Exposition that fails the Prometheus grammar must not leave the
     process as a 200. *)
  let status, _, body =
    Obs_http.handle (source ~metrics:[ "cs_up 1" ] ()) (get "/metrics")
  in
  Alcotest.(check int) "invalid exposition" 500 status;
  Alcotest.(check bool) "names the validation" true
    (contains_sub body "validation")

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)

let test_addr_parsing () =
  let parse s = ok (Obs_http.addr_of_string s) in
  Alcotest.(check bool) "unix: prefix" true
    (parse "unix:/tmp/x.sock" = Obs_http.Unix_sock "/tmp/x.sock");
  Alcotest.(check bool) "bare path" true
    (parse "/tmp/y.sock" = Obs_http.Unix_sock "/tmp/y.sock");
  Alcotest.(check bool) "host:port" true
    (parse "127.0.0.1:9100" = Obs_http.Tcp ("127.0.0.1", 9100));
  Alcotest.(check bool) "bare :port defaults the host" true
    (parse ":0" = Obs_http.Tcp ("127.0.0.1", 0));
  List.iter
    (fun s ->
      match Obs_http.addr_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "localhost:99999"; "localhost:no"; "nocolon" ];
  let round a = Format.asprintf "%a" Obs_http.pp_addr (parse a) in
  Alcotest.(check string) "pp round-trips unix" "unix:/tmp/x.sock"
    (round "unix:/tmp/x.sock");
  Alcotest.(check string) "pp round-trips tcp" "127.0.0.1:9100"
    (round "127.0.0.1:9100")

(* ------------------------------------------------------------------ *)
(* Loopback round trips                                                *)

let with_server addr k =
  let srv = ok (Obs_http.serve_in_background ~addr (source ())) in
  Fun.protect
    ~finally:(fun () ->
      Obs_http.shutdown srv;
      (* Idempotent: a second shutdown is a no-op, not a hang. *)
      Obs_http.shutdown srv)
    (fun () -> k srv)

let temp_sock () =
  let p = Filename.temp_file "cs_http" ".sock" in
  Sys.remove p;
  p

let test_unix_roundtrip () =
  let sock = temp_sock () in
  with_server (Obs_http.Unix_sock sock) (fun srv ->
      let addr = Obs_http.address srv in
      let status, body = ok (Obs_http.fetch ~addr "/metrics") in
      Alcotest.(check int) "metrics over the wire" 200 status;
      Alcotest.(check bool) "exposition body" true
        (contains_sub body "cs_up 1");
      let status, body = ok (Obs_http.fetch ~addr "/health") in
      Alcotest.(check int) "health over the wire" 200 status;
      Alcotest.(check string) "health body" "ok\n" body;
      let status, _ = ok (Obs_http.fetch ~addr "/nope") in
      Alcotest.(check int) "404 over the wire" 404 status);
  Alcotest.(check bool) "socket path removed on shutdown" false
    (Sys.file_exists sock)

let test_tcp_ephemeral_port () =
  with_server (Obs_http.Tcp ("127.0.0.1", 0)) (fun srv ->
      (match Obs_http.address srv with
      | Obs_http.Tcp (_, p) ->
          Alcotest.(check bool) "kernel-assigned port reported" true (p > 0)
      | Obs_http.Unix_sock _ -> Alcotest.fail "address family changed");
      let status, body =
        ok (Obs_http.fetch ~addr:(Obs_http.address srv) "/health")
      in
      Alcotest.(check int) "health over tcp" 200 status;
      Alcotest.(check string) "health body" "ok\n" body)

let test_shutdown_stops_the_server () =
  with_server (Obs_http.Tcp ("127.0.0.1", 0)) (fun srv ->
      let addr = Obs_http.address srv in
      let status, _ = ok (Obs_http.fetch ~addr "/health") in
      Alcotest.(check int) "served before shutdown" 200 status;
      (* shutdown joins the server thread, which closes the listener
         on its way out, so the next connect is refused at once. *)
      Obs_http.shutdown srv;
      match Obs_http.fetch ~attempts:1 ~addr "/health" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "server kept serving past shutdown")

let () =
  Alcotest.run "http"
    [
      ( "head",
        [
          Alcotest.test_case "partial reads" `Quick
            test_read_head_partial_reads;
          Alcotest.test_case "eof and size cap" `Quick
            test_read_head_eof_and_cap;
          QCheck_alcotest.to_alcotest prop_read_head_split_invariant;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request line" `Quick test_parse_request_line;
          Alcotest.test_case "response framing" `Quick test_response_framing;
        ] );
      ( "routing",
        [
          Alcotest.test_case "endpoints" `Quick test_handle_routing;
          Alcotest.test_case "failures are 500" `Quick
            test_handle_failures_are_500;
        ] );
      ( "addr",
        [ Alcotest.test_case "parse and print" `Quick test_addr_parsing ] );
      ( "serve",
        [
          Alcotest.test_case "unix socket round trip" `Quick
            test_unix_roundtrip;
          Alcotest.test_case "tcp ephemeral port" `Quick
            test_tcp_ephemeral_port;
          Alcotest.test_case "shutdown stops the server" `Quick
            test_shutdown_stops_the_server;
        ] );
    ]
