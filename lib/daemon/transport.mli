(** Wire protocol between the orchestrator and a worker process.

    Every request and reply is one {!Mirror_util.Codec} frame — the
    durability log's own length-and-CRC frame — whose payload is a tag
    byte plus fields in the log's binary codec: a captured write in
    the log's record tags ({!Store.add_op}, {!Dictionary.add_op}), a
    message as {!Bus.add_message}, a processor time as its 64 bits.
    Nothing is escaped and no type crosses as a language-private blob.
    This module is pure framing over [Stdlib] channels; the process
    plumbing (fork, pipes, select) lives in {!Proc}.

    Conversation shape: the parent sends {!request} frames; the worker
    answers a [Deliver] with zero or more [Op]/[Pub] frames followed
    by exactly one [Done]/[Fail] terminator; [Sync] gets no reply.
    There are no in-band shutdown or crash frames: the orchestrator
    stops a worker by closing its request pipe, and a worker that dies
    simply ends its reply stream — EOF {e is} the crash signal. *)

type write =
  | Store_op of Store.op
  | Dict_op of Dictionary.op
      (** One write a handler made, captured by {!Worker.handle}.  A
          thesaurus write crosses as the log's rebuild marker
          ([O_thesaurus None]), so the receiving store rebuilds it from
          its own evidence, exactly as recovery does. *)

type request =
  | Sync of write
      (** A write settled by another slot (or made by the
          orchestrator): apply to the replica, no reply. *)
  | Deliver of { seq : int; daemon : string; message : Bus.message }
      (** Handle [message] with the named hosted daemon.  [seq] is the
          bus sequence id; the terminator echoes it. *)

type reply =
  | Op of write  (** A write the handler performed. *)
  | Pub of Bus.message  (** A message the handler returned to publish. *)
  | Done of int * float
      (** Delivery [seq] handled successfully, with the handler's
          processor time in seconds. *)
  | Fail of int * float * string
      (** Delivery [seq] raised a non-fatal exception (processor time
          and exception text attached); the orchestrator owns the
          retry/dead-letter policy. *)

exception Bad of string
(** A malformed frame (protocol violation, never raised on EOF).  The
    codec's own exception, {!Mirror_util.Codec.Bad}. *)

val encode_request : request -> string
(** A request's frame payload. *)

val decode_request : string -> request
(** @raise Bad on anything {!encode_request} does not produce. *)

val encode_reply : reply -> string
val decode_reply : string -> reply

val send_request : out_channel -> request -> unit
(** Write one frame and flush. *)

val send_reply : out_channel -> reply -> unit

val recv_request : in_channel -> request option
(** Read one frame; [None] on EOF (also in mid-frame).
    @raise Bad on a malformed frame. *)
