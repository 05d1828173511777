(** Running one delivery against a replica, and a worker process's
    request loop.

    {!handle} is shared by both transports: it runs a daemon's handler
    against a replica context and captures everything the handler
    did — store and dictionary writes (through the replica's
    {!Store.set_hook} / {!Dictionary.set_hook} write hooks, installed
    only while the handler runs) and returned messages — without
    letting any of it reach the orchestrator.  The orchestrator
    settles the {!outcome}: on success the writes are applied to the
    authoritative store and the messages published; on failure they
    are dropped.  In process the outcome is passed as a value; in a
    worker process {!serve} streams it back as [Op]/[Pub] frames and
    a [Done]/[Fail] terminator. *)

type verdict =
  | Handled
  | Failed of string  (** A daemon failure, with the exception text. *)
  | Fatal of exn
      (** {!Faults.Crash}, [Out_of_memory] or [Stack_overflow]: a
          process death, not a daemon failure. *)

type outcome = {
  writes : Transport.write list;  (** In the order performed. *)
  pubs : Bus.message list;  (** Returned messages ([[]] unless handled). *)
  cpu : float;  (** Processor seconds inside the handler. *)
  verdict : verdict;
}

val handle : Daemon.ctx -> Daemon.t -> Bus.message -> outcome
(** Run the handler against [ctx] (a replica, whose store and
    dictionary carry no hook of their own: the capture is installed
    for the handler's duration and cleared after), capturing its
    effects.  Never raises for a handler exception. *)

val apply : Daemon.ctx -> Transport.write -> unit
(** Apply a captured write to a context ({!Store.apply} /
    {!Dictionary.apply}): the context's hook, if any, sees it. *)

type exit_reason =
  | Closed
      (** EOF on the request pipe: the orchestrator stopped us (or
          died); exit 0. *)
  | Fatal of exn
      (** A handler died ({!verdict} [Fatal]).  No reply was sent: the
          caller must exit immediately (without flushing inherited
          buffers) so the orchestrator observes a real process death. *)

val serve :
  in_channel -> out_channel -> Daemon.t list -> ctx:Daemon.ctx -> exit_reason
(** Process requests until EOF or a fatal handler exception.
    @raise Transport.Bad on a malformed frame from the orchestrator. *)
