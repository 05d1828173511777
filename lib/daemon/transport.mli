(** Wire protocol between the orchestrator and a worker process.

    The frame codec reuses [lib/serve]'s line-framing discipline: one
    frame per line, space-separated fields, each field escaped
    (['\\'] → ["\\\\"], ['\n'] → ["\\n"], [' '] → ["\\s"]) so
    arbitrary bytes — marshalled writes, exception texts — travel
    intact.  This module is pure framing over [Stdlib] channels; the
    process plumbing (fork, pipes, select) lives in {!Proc}.

    Conversation shape: the parent sends {!request} frames; the worker
    answers a [Deliver] with zero or more [Op]/[Pub] frames followed
    by exactly one [Done]/[Fail] terminator; [Sync] gets no reply.
    There are no in-band shutdown or crash frames: the orchestrator
    stops a worker by closing its request pipe, and a worker that dies
    simply ends its reply stream — EOF {e is} the crash signal. *)

type request =
  | Sync of string
      (** A marshalled {!Worker.write} settled by another slot (or
          made by the orchestrator): apply to the replica, no reply. *)
  | Deliver of { seq : int; daemon : string; message : Bus.message }
      (** Handle [message] with the named hosted daemon.  [seq] is the
          bus sequence id; the terminator echoes it. *)

type reply =
  | Op of string
      (** A marshalled {!Worker.write} the handler performed. *)
  | Pub of Bus.message  (** A message the handler returned to publish. *)
  | Done of int * float
      (** Delivery [seq] handled successfully, with the handler's
          processor time in seconds. *)
  | Fail of int * float * string
      (** Delivery [seq] raised a non-fatal exception (processor time
          and exception text attached); the orchestrator owns the
          retry/dead-letter policy. *)

exception Bad of string
(** A malformed frame (protocol violation, never raised on EOF). *)

val send_request : out_channel -> request -> unit
(** Write one frame and flush. *)

val send_reply : out_channel -> reply -> unit

val recv_request : in_channel -> request option
(** Read one frame; [None] on EOF.  @raise Bad on a malformed line. *)

val reply_of_line : string -> (reply, string) result
(** Parse one reply frame (the orchestrator reads replies without an
    [in_channel], see {!Proc.read}). *)
