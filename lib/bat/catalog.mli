(** The BAT catalog: the kernel's name space.

    Every materialised extent, statistics table and index lives here
    under a hierarchical name such as ["ImageLibrary#in"] or
    ["ImageLibrary/annotation@stats/df"].  Plans refer to catalog
    entries by name ({!Mil.Get}), which is what decouples the logical
    algebra from physical storage.

    A catalog is derived state and is never written out: a saved or
    checkpointed database holds the logical rows, and reopening it
    materialises every BAT again (see [Mirror_store.Snapshot]). *)

type t
(** A mutable catalog. *)

val create : unit -> t
(** Fresh empty catalog. *)

val put : t -> string -> Bat.t -> unit
(** Bind (or rebind) a name. *)

val get : t -> string -> Bat.t
(** Look a name up. @raise Not_found if unbound. *)

val find : t -> string -> Bat.t option
(** Optional lookup. *)

val mem : t -> string -> bool
(** Name bound? *)

val remove : t -> string -> unit
(** Unbind (no-op when unbound). *)

type snapshot
(** A frozen copy-on-write version of the catalog's bindings.  BATs
    are immutable once built, so a snapshot shares all row data with
    the live catalog; only the name table is copied (O(#names)). *)

val snapshot : t -> snapshot
(** Freeze the current bindings.  Later mutations of [t] are invisible
    to the snapshot. *)

val of_snapshot : snapshot -> t
(** A fresh catalog holding the snapshot's bindings.  Mutating it does
    not affect the snapshot or the original. *)

val names : t -> string list
(** All bound names, sorted. *)

val cardinality : t -> int
(** Number of bound names. *)

val total_rows : t -> int
(** Sum of row counts over all entries (storage-size proxy used in
    reports). *)
