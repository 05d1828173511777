(** The durable metadata store: checkpoint + write-ahead log + redo
    recovery around a {!Mirror_core.Mirror} database and, when an
    orchestrator is built over it ({!orchestrator}), the daemons'
    delivery state — one log for the whole of Fig. 1's metadata
    database.

    On-disk layout of a durable database directory:

    {v
    <dir>/CHECKPOINT      commit record: snapshot name and LSN
    <dir>/snap.<lsn>      the log as of that LSN, compacted (Snapshot)
    <dir>/wal/            log segments (see Wal)
    v}

    {b Commits.}  Every completed logical update journals one
    {!Record.t}.  A commit is one record journaled outside a group, or
    one {!atomically} group (a single [Fab_atomic] frame); it is
    appended as one frame and fsynced before the call returns.
    Nothing else fsyncs the log but a segment roll, a checkpoint and
    {!close}.

    {b Checkpoints} follow the classic checkpoint+redo recipe: a fresh
    snapshot is written beside the old one, then the [CHECKPOINT]
    metadata file is atomically renamed — the single commit point,
    made durable by fsyncing file contents before each rename and the
    directory after — before old snapshots and segments are
    garbage-collected.  A snapshot is the log compacted, in the log's
    own records ({!Snapshot}): one [Define] and one [Replace] per
    extent, then what the extents cannot show — the whole
    Feedback / Store_op / Dict_op history, and the pending and
    dead-letter deliveries — then an end marker.  {!open_} recovers by
    redo from an empty database: the snapshot the [CHECKPOINT] names,
    then the log suffix — every record past the snapshot's LSN, once
    each and in order, since an [Insert] or [Delete] is not idempotent
    — through the one transition function the live path uses; and
    (because a torn tail or replayed records leave the log ahead of the
    snapshot) it checkpoints again, so an opened store always starts
    from a clean prefix. *)

type config = {
  wal : Wal.config;
  checkpoint_every : int;
      (** auto-checkpoint after this many commits; 0 = manual
          checkpoints only *)
}

val default_config : config

type recovery = {
  replayed : int;  (** log frames redone on top of the snapshot *)
  wal_end : Wal.replay_end;  (** how the scanned log ended *)
  feedback : (string * (string * bool) list) list;
      (** the {e complete} relevance-judgement history (query,
          judgements), oldest first: the snapshot plus
          any log suffix — storage-level adaptation was already
          redone, but a caller that rebuilds session state (thesaurus,
          URL maps) can re-apply it with
          {!Mirror_core.Mirror.replay_feedback} *)
  store_ops : Mirror_daemon.Store.op list;
      (** the complete daemon-store write history (same sourcing),
          oldest first, for {!Mirror_daemon.Store.apply} into a
          rebuilt pipeline store *)
}

type t

val open_ : ?config:config -> dir:string -> unit -> (t * recovery, string) result
(** Open (creating or recovering) a durable database rooted at [dir].
    After a clean shutdown the recovery is empty; after a crash it
    reports what redo did.  [Error] means the directory is damaged
    beyond the torn-tail failure model (checksum mismatch mid-log,
    missing segment, a snapshot damaged or cut short) — recovery never
    silently drops interior history. *)

val mirror : t -> Mirror_core.Mirror.t
(** The live database.  All mutations through it (Moa programs,
    [Storage] loads, feedback) are journaled automatically, each a
    commit unless inside {!atomically}. *)

val storage : t -> Mirror_core.Storage.t
(** Shorthand for [Mirror.storage (mirror t)]. *)

val store_journal : t -> Mirror_daemon.Store.op -> unit
(** The daemon metadata store's write hook when this log is its
    journal: logs each op as a [Store_op] record.  Pass as [?journal]
    to {!Mirror_core.Mirror.build_image_library}; {!orchestrator}
    installs it itself. *)

val atomically : t -> (unit -> 'a) -> 'a
(** Run the thunk with its journaled records buffered, then commit
    them as one [Fab_atomic] frame (a lone record travels bare) and
    one fsync: the whole group survives a crash or none of it does.
    Nested groups flatten into the outer one; no checkpoint runs
    inside a group.  If the thunk raises, nothing it journaled
    reaches the log and the store must be {!abandon}ed.
    @raise Sys_error on a closed store (before running the thunk) or
    when the commit cannot be written or fsynced (see {!Wal.sync}). *)

val set_trace : t -> Mirror_util.Trace.t -> unit
(** Attach a trace: checkpoints become ["wal.checkpoint"] spans and
    each commit a ["wal.append"] event (default {!Mirror_util.Trace.null}). *)

val checkpoint : t -> (unit, string) result
(** Snapshot now and truncate the log.  Crash points
    ([checkpoint.begin|snapshot|rename|meta|commit|gc], see
    {!Mirror_daemon.Faults.crash_hit}) bracket every step. *)

type status = {
  next_lsn : int;
  checkpoint_lsn : int;
  since_checkpoint : int;  (** commits logged since the checkpoint *)
  segments : int;
  log_bytes : int;
  snapshot : string;
      (** file name of the current snapshot, [snap.<lsn>], relative to
          the store directory *)
  last_error : string option;
      (** most recent auto-checkpoint failure, if it has not been
          cleared by a later successful checkpoint.  Auto-checkpoints
          run inside journal hooks, whose Result-returning callers
          must not see an exception for an operation that already
          applied and committed; failures land here instead (the log
          keeps everything, so nothing is lost — compaction is merely
          deferred). *)
  wal_appends : int;  (** frames logged over the store's lifetime *)
  wal_fsyncs : int;
      (** fsync calls paid for them: one per commit, plus segment
          rolls, checkpoints and close.  Both counters span
          checkpoint-time writer swaps; {!inspect} reports them as
          zero (they live in the owning process, not on disk). *)
}

val status : t -> status

val inspect : dir:string -> (status * Wal.replay_end, string) result
(** Read-only view of a durable directory without opening it: parse
    [CHECKPOINT], scan the log verifying every checksum, report how
    the tail ends.  Mutates nothing — safe on a directory another
    process owns. *)

val certify : t -> (unit, string) result
(** Post-recovery certification: statically vet the identity query of
    every extent ({!Mirror_core.Plancheck.vet}) and differentially
    execute it (flattened kernel vs naive object-at-a-time), so a
    recovered database that would answer queries differently from its
    logical contents is rejected. *)

(** {1 The delivery journal} *)

val journal : t -> Mirror_daemon.Orchestrator.journal
(** The orchestrator's delivery state machine journaled into this
    log: routes, settlements ({!atomically}, with the writes they
    apply), dead letters and redeliveries, each a commit.  Crash
    points ["fabric.route"/"done"/"dead"/"redeliver"/"settled"] follow
    each event. *)

val orchestrator :
  ?daemons:Mirror_daemon.Daemon.t list ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?config:Mirror_daemon.Orchestrator.config ->
  t ->
  (Mirror_daemon.Orchestrator.t, string) result
(** Build an orchestrator (on either transport) that journals through
    {!journal}, its store writes and dictionary changes included.  If
    the store was recovered from a crashed instance, the store and
    dictionary histories are replayed into the fresh context first,
    journaled in-flight deliveries go back on the bus (original
    sequence ids and attempt counts) and dead letters back into the
    queue — the exact state the crashed instance had journaled.
    Footage is not journaled: the media server is a separate party,
    and the caller re-serves it.  {!Mirror_daemon.Orchestrator.shutdown}
    closes the store.  Build at most one per store. *)

type deliveries = {
  pending : Record.fab_route list;  (** sorted by (daemon, seq) *)
  dead_letters : (Record.fab_route * Mirror_daemon.Deadletter.cause * float) list;
      (** (route, cause, time), sorted by (daemon, seq) *)
}

val deliveries : dir:string -> (deliveries, string) result
(** Read-only recovery of a directory's pending and dead-letter sets
    (for [daemons deadletters]): snapshot plus log suffix, without
    writing anything. *)

val state_keys : t -> (string * int) list * (string * int * string) list
(** Canonical fingerprint of the journaled delivery state — pending
    keys and (daemon, seq, cause tag) of each dead letter, both
    sorted — comparable with {!Mirror_daemon.Orchestrator.state_keys}. *)

(** {1 Closing} *)

val close : t -> unit
(** Checkpoint (best effort) and release the log. *)

val abandon : t -> unit
(** Release the log {e without} checkpointing, leaving the directory
    exactly as a crash would.  Used by crash tests to drop a store
    whose process "died"; the next {!open_} recovers it. *)
