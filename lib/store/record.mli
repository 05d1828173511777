(** Logical write-ahead-log records and their binary codec.

    The log is *logical*: each record describes one completed update
    at the storage-manager level (extent DDL, whole-extent replacement
    — the copying DML discipline of {!Mirror_core.Storage} makes that
    the natural granularity), one relevance-feedback judgement, one
    daemon-store write, one data-dictionary change, or one step
    of the orchestrator's delivery state machine.  Redo is idempotent
    by construction: [Replace] carries the complete post-state of the extent, so
    applying a record twice (or applying it to a state that already
    includes it) converges to the same database.

    The same records, in the same codec and {!Wal} framing, make up a
    snapshot ({!Snapshot}): the log compacted to one [Define] and one
    [Replace] per extent plus the side records, closed by an {!End}
    marker.

    The codec round-trips exactly: every int, length and count is a
    zigzag LEB128 varint (one byte for a magnitude below 64, ten never;
    an overlong, unterminated or wider-than-63-bit varint is refused),
    floats travel as their 64 IEEE-754 bits, strings length-prefixed,
    so a replayed database is bit-for-bit the one that was logged. *)

type fab_route = {
  daemon : string;  (** Destination subscriber. *)
  seq : int;  (** Bus sequence id — unique per enqueued copy. *)
  topic : string;
  subject : int;
  payload : (string * string) list;
  attempts : int;  (** Attempts consumed when journaled (0 if fresh). *)
}
(** One in-flight delivery, self-contained: recovery re-materializes
    the bus entry from this record alone. *)

type t =
  | Define of string * Mirror_core.Types.t  (** [define <name> as <ty>] *)
  | Replace of string * Mirror_core.Value.t list
      (** Full new contents of an extent (load / insert / delete). *)
  | Feedback of { query : string; judgements : (string * bool) list }
      (** A {!Mirror_core.Mirror.give_feedback} call. *)
  | Store_op of Mirror_daemon.Store.op
      (** A daemon metadata-store write, as the store's write hook
          reported it.  [O_thesaurus] is logged as a rebuild marker
          and decodes to [O_thesaurus None] (see
          {!Mirror_daemon.Store.op}). *)
  | Dict_op of Mirror_daemon.Dictionary.op
      (** A settled data-dictionary change (schema evolution). *)
  | Fab_route of fab_route
      (** A delivery was routed to a daemon (now pending). *)
  | Fab_done of { daemon : string; seq : int }
      (** The delivery was handled (or dropped); no longer pending. *)
  | Fab_dead of {
      daemon : string;
      seq : int;
      cause : Mirror_daemon.Deadletter.cause;
      at : float;
    }
      (** The pending delivery moved to the dead-letter queue.  A
          [Failed] cause carries the raising exception's text
          (arbitrary bytes, newlines included), [Expired] the breaker
          state at expiry. *)
  | Fab_redeliver of { daemon : string; seq : int }
      (** The dead letter moved back to pending with a fresh retry
          budget — one atomic record, so a crash between "take" and
          "requeue" can neither lose nor duplicate the letter. *)
  | Fab_atomic of t list
      (** A group of records that commits as one WAL frame
          ({!Durable.atomically}).  The orchestrator journals a
          delivery's settlement (store and dictionary writes,
          downstream routes, the [Fab_done]) this way, and the serving
          tier a write batch, so a crash loses the whole group or none
          of it — never a delivery left pending with its effects
          already applied, nor half a batch. *)
  | End of int
      (** Closes a snapshot file: the number of records before it.  A
          snapshot cut at a frame boundary lacks it (or holds a wrong
          count), so a cut is refused rather than read as a smaller
          database.  Never journaled in the log. *)

val encode : t -> string
(** Serialise to the WAL payload form. *)

val decode : string -> (t, string) result
(** Parse a payload produced by {!encode}.  Total: malformed input
    yields [Error], never an exception. *)

val describe : t -> string
(** One-line human rendering for [wal status] and diagnostics. *)
