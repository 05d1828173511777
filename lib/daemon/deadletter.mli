(** The dead-letter queue: undeliverable messages, with their cause.

    A delivery lands here when its retry budget is exhausted, its
    deadline passes while the target is unhealthy, or it is shed by a
    full bounded queue.  Every entry records {e why} — "a party in an
    open architecture may simply be down" is only tolerable when the
    failure is attributable.  Entries keep their delivery envelope so
    {!Orchestrator.redeliver} can put the exact delivery back on the
    bus once the target daemon is healthy again. *)

type cause =
  | Failed of string
      (** Retry budget exhausted; carries the last exception text. *)
  | Expired of string
      (** Deadline passed while queued; carries the breaker state of
          the target at expiry. *)
  | Overflow  (** Shed by a full bounded queue under [Shed_oldest]. *)

val cause_to_string : cause -> string

val cause_tag : cause -> string
(** ["failed"] / ["expired"] / ["overflow"]. *)

type entry = {
  daemon : string;  (** The subscriber that could not be served. *)
  delivery : Bus.delivery;
  cause : cause;
  at : float;  (** Clock reading when dead-lettered. *)
}

type t

val create : unit -> t

val add : t -> entry -> unit

val entries : t -> entry list
(** Oldest first. *)

val count : t -> int

val for_daemon : t -> string -> entry list
(** Entries addressed to one daemon, oldest first. *)

val exists_topic : t -> string -> bool
(** Is any entry's message on this topic?  (Barrier-release test.) *)

val take : ?daemon:string -> t -> entry list
(** Remove and return entries (all, or one daemon's), oldest first —
    the redelivery path. *)
