(** The line-framed wire protocol of [mirror_cli serve].

    One connection is one session.  Requests are single lines:

    {v
    query <moa expression>      snapshot-isolated read
    exec <moa statements>       group-committed write
    pin                         freeze the read view at the head
    unpin                       follow the head again
    stats                       one-line server statistics
    quit                        close the session
    v}

    Every reply is one line, [<id> <status> ...] where [<id>] is the
    server's request id (0 for a refusal at submission, before an id
    was assigned) and [<status>] is [ok], [hit] (served by the result
    cache) or [err <kind>:] with [kind] one of [admission],
    [breaker-open], [bad-request], [exec].  Payloads are escaped so
    they never span lines ([\n], [\\]). *)

type command = Req of Serve.request | Stats | Quit

val parse : string -> (command, string) result
(** Parse one request line (leading/trailing whitespace ignored). *)

val escape : string -> string
(** Newlines and backslashes to [\n]/[\\] — payloads stay one line at
    any size.  A string with neither is returned as is (physically, no
    copy). *)

val render_reply : int -> Serve.reply -> string
(** One reply line (no trailing newline).  A value's payload is
    [escape (Value.to_string v)], written with the status and version
    into one buffer. *)

val render_refusal : Serve.error -> string
(** A submission-time refusal line, request id 0. *)

val render_stats : Serve.stats -> string
(** [0 ok stats sessions=... served=... hit_rate=...] — one line. *)
