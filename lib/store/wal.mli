(** The segmented, checksummed write-ahead log.

    On disk a log is a directory of segment files named
    [wal.<first-lsn>.log]; a segment holds consecutive records in the
    shared frame ({!Mirror_util.Codec.frame}, also the worker pipe's)

    {v [len : u32 le][crc32(payload) : u32 le][payload bytes] v}

    LSNs are implicit: the [n]-th frame of a segment has LSN
    [first-lsn + n], so the framing stays self-describing and a
    segment's name states exactly which prefix of history it covers.

    Failure model on replay: a frame that runs past the end of the
    {e last} segment is a torn write — the normal shape of a crash
    mid-append, and everything before it is a good prefix.  A frame
    with an implausible length, a checksum mismatch, or truncation
    {e before} the last segment cannot be produced by an append-only
    writer crashing, so it is reported as corruption, never silently
    skipped. *)

type config = {
  segment_bytes : int;  (** roll to a new segment past this size *)
}

val default_config : config
(** 1 MiB segments. *)

(** {1 Appending}

    An append only writes (the frame reaches the OS); the writer's
    owner decides when to {!sync}.  {!Durable} syncs once per commit. *)

type stats = {
  appends : int;  (** records appended through this writer *)
  fsyncs : int;  (** successful fsync calls *)
}

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum — for accumulating across writer generations (the
    durable store swaps writers at each checkpoint). *)

type t
(** An open log writer. *)

val stats : t -> stats
(** Counters since {!create} on this writer. *)

val create : ?config:config -> dir:string -> start_lsn:int -> unit -> t
(** Open [dir] (created if missing) for appending, starting a fresh
    segment whose first record will carry [start_lsn].  An existing
    segment of that name is truncated (the caller has already replayed
    or checkpointed past it). *)

val append : t -> string -> int
(** Append one record, returning its LSN.  The frame is flushed to the
    OS, not fsynced.  Honours
    {!Mirror_daemon.Faults.write_allowance}: a torn-write fault writes
    a prefix of the frame and raises {!Mirror_daemon.Faults.Crash}.
    Raises [Sys_error] on a poisoned writer (see {!sync}). *)

val next_lsn : t -> int
(** LSN the next {!append} will return. *)

val sync : t -> unit
(** Flush and fsync now.  A failed fsync raises [Sys_error] {e and
    poisons the writer} — after one failure the kernel may have
    dropped the dirty pages while reporting the error only once, so a
    later fsync succeeding proves nothing; every subsequent
    {!append}/{!sync} raises too. *)

val close : t -> unit
(** Close the current segment, syncing it first if anything appended
    is not yet fsynced (a segment roll does the same).  A poisoned writer is closed
    without the final sync (its appends are not durable anyway). *)

(** {1 Replay} *)

type replay_end =
  | Clean  (** log ends on a frame boundary *)
  | Torn of string  (** truncated tail frame (message says where) *)
  | Corrupt of string  (** mid-log damage or checksum mismatch *)

val replay :
  dir:string ->
  from_lsn:int ->
  f:(int -> string -> unit) ->
  (int * replay_end, string) result
(** Scan every segment in order, calling [f lsn payload] for each
    well-formed record with [lsn >= from_lsn].  Returns
    [(next_lsn, end_state)] where [next_lsn] is one past the last good
    record ([from_lsn] when the log is empty).  [Error] is reserved
    for an unreadable directory or non-contiguous segment names;
    damaged record data is reported through [end_state]. *)

val segments : dir:string -> (int * string) list
(** (first LSN, absolute path) of each segment, ascending.  Empty for
    a missing directory. *)
