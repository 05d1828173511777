(** The orchestrator's durable delivery journal.

    One write-ahead log (reusing {!Mirror_store.Wal}'s segmented
    CRC-framed format and {!Mirror_store.Record}'s codec) carries two
    interleaved histories:

    - every daemon-store write, as opaque [Store_op] records (the
      parent store's journal hook feeds {!store_op}), and
    - the delivery state machine, as [Fab_route] / [Fab_done] /
      [Fab_dead] / [Fab_redeliver] records.

    Recovery replays the checkpoint snapshot plus the log suffix
    through the {e same} state-transition function the live path uses,
    so the reconstructed pending set, dead-letter queue, and store
    history are exact by construction — the orchestrator-crash chaos
    suite asserts this via {!state_keys}.

    Checkpoints follow the [Durable] commit protocol (fsynced
    snapshot, rename, fsynced CHECKPOINT meta with a %crc footer as
    the commit point, GC, fresh log segment); crash points
    ["fabric.checkpoint.*"] and ["fabric.route"] / ["fabric.done"] /
    ["fabric.dead"] / ["fabric.redeliver"] let the chaos suite kill
    the orchestrator inside the protocol. *)

type t

type dead = {
  route : Mirror_store.Record.fab_route;
  cause : Mirror_store.Record.fab_cause;
  at : float;
}

type recovery = {
  replayed : int;  (** log-suffix records applied (not the snapshot) *)
  wal_end : Mirror_store.Wal.replay_end;
}

val default_config : Mirror_store.Wal.config
(** 1 MiB segments, fsync every 256 appends — each append still
    reaches the OS synchronously, and {!sync} is the per-turn group
    commit. *)

val open_ :
  ?config:Mirror_store.Wal.config ->
  ?checkpoint_every:int ->
  dir:string ->
  unit ->
  (t * recovery, string) result
(** Open (creating [dir] if missing), recover, and immediately
    re-checkpoint to a clean prefix.  A torn tail on the last segment
    is dropped (normal crash shape); mid-log damage or an inconsistent
    transition is an [Error].  [checkpoint_every > 0] auto-checkpoints
    after that many appends (default: only on {!close}/{!checkpoint}). *)

(** {1 Events}

    Each event appends one record, fsyncs per the config's batching,
    and applies it to the in-memory view.  @raise Invalid_argument on
    an inconsistent transition (e.g. {!dead} for a delivery that was
    never routed). *)

val store_op : t -> tag:string -> payload:string -> unit
val route : t -> Mirror_store.Record.fab_route -> unit
val done_ : t -> daemon:string -> seq:int -> unit
val dead :
  t -> daemon:string -> seq:int -> cause:Mirror_store.Record.fab_cause -> at:float -> unit

val redeliver : t -> daemon:string -> seq:int -> unit
(** One atomic record: the dead letter moves back to pending with
    [attempts = 0].  A crash cannot lose or duplicate the letter. *)

val atomically : t -> (unit -> 'a) -> 'a
(** Run the thunk with event appends buffered, then commit everything
    it journaled as one [Fab_atomic] WAL frame — the whole group
    survives a crash or none of it does.  The orchestrator wraps a
    delivery's settlement (store ops, downstream routes, the
    [Fab_done]) this way.  The in-memory view updates eagerly; if the
    thunk raises, nothing reaches disk and the instance must be
    {!abandon}ed.  Nested groups flatten into the outer one. *)

val sync : t -> unit
(** Group-commit point: fsync everything appended so far. *)

val checkpoint : t -> (unit, string) result
(** Fold the log into a fresh snapshot and truncate. *)

val close : t -> unit
(** Checkpoint and close. *)

val abandon : t -> unit
(** Close the writer {e without} checkpointing — simulates dying with
    the log as-is, for crash tests. *)

(** {1 Introspection} *)

val pending : t -> Mirror_store.Record.fab_route list
(** Routed-but-unresolved deliveries, sorted by (daemon, seq). *)

val dead_letters : t ->
  (Mirror_store.Record.fab_route * Mirror_store.Record.fab_cause * float) list
(** Dead letters, sorted by (daemon, seq). *)

val store_history : t -> (string * string) list
(** Journaled store writes, oldest first — replay these through
    {!Mirror_daemon.Store.replay} to rebuild the metadata store. *)

val cause_tag : Mirror_store.Record.fab_cause -> string
(** ["failed"] / ["expired"] / ["overflow"]. *)

val state_keys : t -> (string * int) list * (string * int * string) list
(** Canonical fingerprint of the delivery state — pending keys and
    (daemon, seq, cause tag) of each dead letter, both sorted — for
    exact-recovery assertions. *)

val inspect :
  dir:string ->
  ( Mirror_store.Record.fab_route list
    * (Mirror_store.Record.fab_route * Mirror_store.Record.fab_cause * float) list,
    string )
  result
(** Read-only recovery of another journal's pending and dead-letter
    sets (for [daemons deadletters]).  Does not write. *)
