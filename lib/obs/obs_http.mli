(** A minimal, dependency-free HTTP/1.1 exposition server.

    The observability layer's files (traces and what [cstrace] derives
    from them) answer questions {e after} a run; a scraper — a
    Prometheus poller, a CI smoke probe, an operator with [curl] —
    wants to ask them {e during} one. This module serves exactly two
    read-only endpoints over a Unix-domain or TCP socket:

    - [GET /metrics] — Prometheus text exposition. The lines are passed
      through {!Obs_export.validate_prometheus} before they leave the
      process: serving unscrapable text is a [500], not a silent
      poisoning of the poller.
    - [GET /health] — the {!Obs_health} verdict over the current
      metrics: [200] when healthy, [503] when any rule fires, mirroring
      the CLI's exit-code contract so probes and scripts agree.

    One request per connection ([Connection: close]), bodies framed by
    [Content-Length]: the protocol surface is deliberately the smallest
    thing a standard scraper accepts. Request parsing and response
    framing are pure string functions, unit-testable without a socket;
    only {!serve_in_background} and {!fetch} touch [Unix]. The one
    server is [cstrace collect --http]'s live view of its aggregated
    registry. Socket I/O is fenced by lint rule R13 to this file plus
    the streaming transport ({!Obs_stream}, {!Obs_remote},
    {!Obs_collect}), which reuses the address vocabulary and
    {!listen_on} plumbing below. *)

(** {1 Pure protocol core} *)

type request = { meth : string; path : string; version : string }

val max_head_bytes : int
(** Cap on the request head (request line + headers, [8192]). A peer
    that sends more gets [431] and the connection closed — the server
    buffers a bounded amount no matter who connects. *)

val read_head :
  ?max_len:int ->
  (bytes -> int -> int -> int) ->
  (string, [ `Too_large | `Eof ]) result
(** Accumulate from a [read buf pos len] function (returning [0] at
    end-of-stream) until the blank line ending an HTTP head ([CRLFCRLF],
    or bare [LFLF] from hand-typed clients), in chunks as small as the
    reader yields them — partial reads are the normal case on sockets.
    Returns the head up to and including its earliest terminator of
    either kind, so the result does not depend on how the input was
    split; [`Too_large] when the first [max_len] bytes (default
    {!max_head_bytes}) hold no terminator and more follow, [`Eof] if
    the stream ends first. Linear in the bytes read: each is scanned
    once. *)

val parse_request_line : string -> (request, string) result
(** Parse the first line of a head: exactly [METHOD SP PATH SP
    HTTP/x.y]. The path is taken verbatim up to [?] (queries are
    ignored, not errors); anything else — missing parts, embedded
    whitespace, non-HTTP version — is an error, which {!handle} turns
    into [400]. *)

val response : status:int -> ?content_type:string -> string -> string
(** Frame a complete HTTP/1.1 response: status line with the standard
    reason phrase, [Content-Type] (default [text/plain; charset=utf-8]),
    [Content-Length] of the body, [Connection: close], blank line,
    body. *)

val status_reason : int -> string
(** Standard reason phrase ([200] → ["OK"], [503] → ["Service
    Unavailable"], ...); ["Status"] for codes outside the table. *)

(** {1 Routing} *)

type source = {
  metrics : unit -> string list;
      (** Current exposition lines ({!Obs_export.prometheus}). *)
  health : unit -> int * string;
      (** Probe status ([200] / [503]) and report body. *)
}
(** What the server serves, abstracted so {!Obs_collect} can hand it a
    live registry and tests can hand it constants. *)

val handle : source -> request -> int * string * string
(** Route one request to [(status, content_type, body)]: the two
    endpoints plus [/] (a plain-text index of them), [405] for any
    method but [GET], [404] otherwise. [/metrics] output failing
    {!Obs_export.validate_prometheus} is reported as a [500] naming the
    offending line. Pure: all I/O lives in the [source] thunks. *)

(** {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** [unix:PATH] (or any string containing [/]) is a Unix-domain socket
    path; [HOST:PORT] is TCP. *)

val pp_addr : Format.formatter -> addr -> unit
(** Inverse of {!addr_of_string} ([unix:PATH] / [HOST:PORT]). *)

(** {1 Socket plumbing}

    Shared with the streaming transport ({!Obs_remote}'s connector and
    {!Obs_collect}'s accept loop), so every module behind the R13
    fence resolves and binds addresses the same way. *)

val sockaddr_of : addr -> Unix.socket_domain * Unix.sockaddr
(** Resolve an {!addr} to the [Unix] pair a socket call needs
    (hostnames fall back to the loopback address when resolution
    fails). *)

val listen_on : addr -> (Unix.file_descr * addr, string) result
(** Bind and listen on [addr]: unlink a stale Unix socket path first,
    set [SO_REUSEADDR] on TCP, and return the bound address — with TCP
    port [0], the ephemeral port the kernel picked. *)

val cleanup : Unix.file_descr -> addr -> unit
(** Close a listening socket and remove its Unix socket path; errors
    are swallowed (teardown must not mask the real failure). *)

(** {1 Serving} *)

type server
(** A server running in a background thread. *)

val serve_in_background : addr:addr -> source -> (server, string) result
(** Bind [addr] (unlinking a stale Unix socket path first) and serve on
    a [Thread.t], returning once the socket is listening — a subsequent
    {!fetch} cannot land before the bind. The thread accepts one
    connection at a time: read a head, answer, close; malformed and
    oversized requests are answered [400] / [431]. Used by
    {!Obs_collect} to serve its live registry while the collector keeps
    accepting producers. The source thunks run on the server thread:
    registry reads are safe (atomic snapshots), but the thunks must not
    assume the main thread is parked. *)

val address : server -> addr
(** The bound address — with TCP port [0], the ephemeral port the
    kernel picked. *)

val shutdown : server -> unit
(** Stop accepting, unblock the accept loop, join the thread and remove
    a Unix socket path. Idempotent. *)

(** {1 Client} *)

val fetch :
  ?attempts:int -> addr:addr -> string -> (int * string, string) result
(** Minimal one-shot client: [fetch ~addr path] sends [GET path] and
    returns [(status, body)]. The
    connect is retried up to [attempts] (default [100]) times with a
    50 ms pause — startup polling for tests and CI probes; retry
    bounds come from attempt counts, never from reading the clock
    (R8). *)
