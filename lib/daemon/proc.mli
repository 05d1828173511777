(** One forked worker process and its pipe pair — the plumbing of the
    orchestrator's process transport.

    The recovery unit of that transport is the process: a worker that
    dies ([SIGKILL], a fatal handler exception, an OOM) is detected as
    EOF on its reply pipe.  POSIX only. *)

type t

val spawn : siblings:t list -> (in_channel -> out_channel -> int) -> t
(** Fork a process that runs the function over its request/reply
    channels and exits with the returned code.  The child closes its
    copies of the [siblings]' parent-side pipe ends, so each worker's
    death stays visible as EOF. *)

val pid : t -> int

val send : t -> Transport.request -> bool
(** Write one request frame; false when the pipe is broken (the
    process died under us).  Call with [SIGPIPE] ignored. *)

val read : t -> Transport.reply list option
(** Drain the reply pipe without blocking: the complete frames
    received so far, or [None] on EOF (the process is gone).
    @raise Transport.Bad on a malformed frame. *)

val frames : Buffer.t -> Transport.reply list
(** The complete reply frames at the front of the buffer, removed from
    it; a torn last frame stays buffered until the rest arrives (a
    worker killed mid-frame shows up as EOF, not as damage).
    @raise Transport.Bad on a malformed frame. *)

val wait : t list -> float -> t list
(** The processes with reply bytes (or EOF) ready, waiting at most the
    given seconds. *)

val kill : t -> unit
(** [SIGKILL]; the death is observed by the next {!read}. *)

val close : t -> unit
(** Close the parent-side pipe ends. *)

val reap : t -> unit
(** Collect the exit status (blocks until the process is gone). *)

val quit : t -> unit
(** Graceful stop: close both pipes (the worker exits on EOF), reap. *)
