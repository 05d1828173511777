(** The message bus — the offline stand-in for the CORBA ORB.

    "Using CORBA, we allow distribution of operations, establishing
    independence between the management of meta data and the parties
    that create these meta data."  Daemons never call each other; they
    subscribe to topics and publish messages.  Delivery is asynchronous
    (per-subscriber FIFO queues drained by the orchestrator), which
    preserves the decoupling that matters architecturally.

    Each enqueued copy of a message is wrapped in a {!delivery}
    envelope carrying a unique sequence id, its own retry count and an
    optional deadline — two identical messages published twice are two
    deliveries with independent retry budgets.  Per-subscriber queues
    may be bounded; on overflow the bus either exerts backpressure
    (the delivery waits in a publisher-visible stall buffer and is
    admitted as the subscriber drains) or sheds the oldest queued
    delivery to the overflow handler (the orchestrator's dead-letter
    queue). *)

type message = {
  topic : string;  (** e.g. "image.new", "segments.ready". *)
  subject : int;  (** The object (document oid) the message concerns. *)
  payload : (string * string) list;  (** Free-form attributes. *)
}

val attr : message -> string -> string option
(** Payload attribute lookup. *)

val add_message : Buffer.t -> message -> unit
(** Write a message in the log's codec ({!Mirror_util.Codec}): topic,
    subject, then the counted payload pairs. *)

val read_message : Mirror_util.Codec.cursor -> message
(** Read a message written by {!add_message}.
    @raise Mirror_util.Codec.Bad on damage. *)

type delivery = {
  seq : int;  (** Unique per enqueued copy, assigned by {!publish}. *)
  message : message;
  mutable attempts : int;  (** Handling attempts so far (orchestrator-owned). *)
  mutable deadline : float option;
      (** Clock reading after which the delivery is expired
          (orchestrator-owned; [None] until stamped). *)
}

type overflow_policy =
  | Backpressure
      (** A delivery to a full queue waits in the subscriber's stall
          buffer and is admitted when the queue drains below capacity;
          the publisher observes the stall through {!stalled}. *)
  | Shed_oldest
      (** A delivery to a full queue evicts the oldest queued delivery
          into the overflow handler (see {!set_overflow_handler}). *)

type t

val create : ?capacity:int -> ?policy:overflow_policy -> unit -> t
(** Fresh bus with no subscribers.  [capacity] bounds every
    subscriber queue (default: unbounded); [policy] (default
    [Backpressure]) says what happens on overflow. *)

val subscribe : t -> topic:string -> name:string -> unit
(** Register interest of daemon [name] in [topic] (idempotent). *)

val set_overflow_handler : t -> (string -> delivery -> unit) option -> unit
(** Install the shed-delivery sink ([Shed_oldest] only): called with
    the subscriber name and the evicted delivery.  Without a handler,
    shed deliveries are counted and dropped. *)

val set_route_hook : t -> (string -> delivery -> unit) option -> unit
(** Observe every routing decision: called with the subscriber name
    and the fresh delivery each time {!publish} (or {!requeue})
    enqueues a copy — before any overflow handling, so a delivery that
    is immediately stalled or shed is still observed.  A journaled
    orchestrator records these as in-flight deliveries; {!inject} deliberately
    bypasses the hook. *)

val publish : t -> message -> unit
(** Fan the message out as one fresh delivery per subscriber.
    Messages on topics nobody subscribes to are counted as dropped.
    The counts are read with {!published}, {!dropped}, {!stalls} and
    {!shed}. *)

val fetch : t -> name:string -> message option
(** Pop the next message queued for a daemon (envelope discarded). *)

val fetch_delivery : t -> name:string -> delivery option
(** Pop the next delivery queued for a daemon, admitting stalled
    deliveries into the freed slot. *)

val requeue : t -> name:string -> message -> unit
(** Push a message back onto one daemon's queue as a fresh delivery
    (does not fan out and does not count as a new publication).  The
    delivery goes to the {e back} of the queue, behind anything
    already queued — including messages published since it was
    fetched. *)

val requeue_delivery : t -> name:string -> delivery -> unit
(** Push an existing delivery back onto one daemon's queue (retry
    path), preserving its sequence id, attempt count and deadline.
    Bypasses the capacity bound — a retry is never shed. *)

val inject : t -> name:string -> seq:int -> attempts:int -> message -> delivery
(** Recovery path: re-materialize a journaled in-flight delivery with
    its original sequence id and attempt count (no deadline — it is
    re-stamped on the next sweep).  Advances the internal sequence
    counter past [seq], counts toward {!delivered_to}, bypasses the
    capacity bound and does {e not} fire the route hook. *)

val reserve : t -> seq:int -> unit
(** Advance the internal sequence counter past [seq] without enqueuing
    anything — recovery uses this for journaled deliveries that are
    re-materialized {e off} the bus (dead letters), so future
    {!publish}es cannot reuse their ids. *)

val sweep : t -> name:string -> keep:(delivery -> bool) -> delivery list
(** Filter one daemon's queue and stall buffer in place, preserving
    order; returns the removed deliveries oldest-first and admits
    stalled deliveries into any freed capacity.  The orchestrator uses
    this to stamp deadlines and expire overdue deliveries. *)

val pending : t -> int
(** Deliveries currently queued or stalled across all subscribers. *)

val pending_for : t -> name:string -> int
(** Deliveries queued or stalled for one daemon. *)

val pending_by_topic : t -> topic:string -> int
(** Deliveries queued or stalled whose message carries [topic] —
    the orchestrator's barrier-release test. *)

val queued : t -> name:string -> int
(** Deliveries in one daemon's bounded queue (stall buffer excluded);
    never exceeds the capacity. *)

val stalled : t -> name:string -> int
(** Deliveries waiting in one daemon's stall buffer. *)

val delivered_to : t -> name:string -> int
(** Deliveries ever enqueued (or stalled) for one daemon, requeues
    excluded — the denominator of the chaos suite's accounting
    invariant. *)

val published : t -> int
(** Messages published so far. *)

val dropped : t -> int
(** Messages published to topics with no subscriber. *)

val shed : t -> int
(** Deliveries evicted under [Shed_oldest] so far. *)

val stalls : t -> int
(** Deliveries that entered a stall buffer under [Backpressure] so
    far (cumulative). *)
