(** Snapshots: the log, compacted.

    A snapshot file is a sequence of {!Record.t}s in {!Record}'s codec
    and {!Wal.frame} framing: one [Define] and one [Replace] (its rows)
    per extent, in name order; then any side records the writer adds
    (a durable store's feedback, daemon-store and delivery history, see
    {!Durable}); and last an [End] record counting the records before
    it.  Reading one back is replay: start from an empty database and
    {!redo} every record — the same redo a durable store runs over its
    log suffix.  So there is one way to build an extent, whether it
    comes from a load, a log or a snapshot, and a reopened database
    holds exactly the rows that were saved, floats bit for bit.

    [.save DIR], [.load DIR] and [--db DIR] keep a database as the one
    file [DIR/snapshot] ({!save}, {!load}); a durable store keeps its
    [snap.<lsn>] files beside its log. *)

val of_storage : Mirror_core.Storage.t -> Record.t list
(** The records that rebuild the storage: [Define] and [Replace] per
    extent, in name order. *)

val write : string -> Record.t list -> unit
(** Write the records, framed, then the [End] marker, to the path and
    fsync the file.  Not atomic by itself: write a temporary name and
    rename it into place.  @raise Sys_error on an I/O failure. *)

val read : string -> (Record.t list, string) result
(** Read a snapshot file strictly: every frame whole and checksummed,
    every payload a record, and the last record an [End] whose count
    matches — a file cut anywhere, at a frame boundary too, is an
    [Error] naming the file.  Returns the records before the marker. *)

val redo : Mirror_core.Mirror.t -> Record.t -> (unit, string) result
(** The database effect of one record: [Define], [Replace], [Insert]
    and [Delete] act on the storage through the functions the live
    statement called ({!Mirror_core.Storage.define}, [load], [insert],
    [delete_positions]), [Feedback] on the session's adaptation; every
    other record acts elsewhere (see {!Durable}) and is a no-op here.
    A storage error — an unknown extent, a row of the wrong type, a
    delete position out of range or out of order — is an [Error]
    naming the extent, never an exception. *)

val save : Mirror_core.Storage.t -> dir:string -> (unit, string) result
(** Write [dir/snapshot] ([dir] is created if missing) through a
    temporary file, fsync and rename. *)

val load : dir:string -> (Mirror_core.Storage.t, string) result
(** Replay [dir/snapshot] into a fresh storage manager. *)
