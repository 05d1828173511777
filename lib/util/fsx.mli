(** File-system helpers: durability ordering for atomic file
    replacement, and recursive removal.

    The temp-file + [Sys.rename] idiom is only crash-safe if the temp
    file's {e contents} reach stable storage before the rename does:
    otherwise power loss can persist the new directory entry pointing
    at unwritten data.  The full recipe is

    + write the temp file, {!fsync_out}, close;
    + [Sys.rename] over the destination;
    + {!fsync_dir} the containing directory (persists the rename).

    Failures surface as [Sys_error], matching the channel functions
    these compose with. *)

val fsync_out : out_channel -> unit
(** Flush the channel and fsync its file descriptor. *)

val fsync_dir : string -> unit
(** fsync a directory, persisting recent renames/creations inside it.
    Filesystems that refuse fsync on directory fds are tolerated
    (there is no stronger primitive available there). *)

val rm_rf : string -> unit
(** Remove a file or a directory tree; a path that does not exist, or
    an entry that cannot be removed, is skipped. *)
