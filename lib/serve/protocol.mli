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

(** {1 Reply lines} *)

type line
(** A reusable reply line.  Each [*_into] renders one line into the
    line's text buffer, copies it once into the line's bytes, escapes
    it there and ends it with a newline; {!bytes} and {!length} are then
    exactly what goes down the socket, until the next render. *)

val line : unit -> line
val bytes : line -> Bytes.t
val length : line -> int
(** The rendered line is [Bytes.sub (bytes l) 0 (length l)], newline
    included. *)

val reply_into : line -> int -> Serve.reply -> unit
(** One reply.  A value's payload is [escape (Value.to_string v)]. *)

val refusal_into : line -> Serve.error -> unit
(** A submission-time refusal, request id 0. *)

val stats_into : line -> Serve.stats -> unit
(** {!render_stats}'s line. *)

val render_reply : int -> Serve.reply -> string
(** {!reply_into}'s line as a string, without its newline. *)

val render_refusal : Serve.error -> string
(** {!refusal_into}'s line as a string, without its newline. *)

val render_stats : Serve.stats -> string
(** [0 ok stats sessions=... served=... hit_rate=...] — one line. *)
