(** The copy-on-write version store: snapshot isolation for readers.

    Every committed write batch publishes a new {e version} — an
    immutable {!Mirror_core.Storage.snapshot} of the whole logical
    state plus a monotonically increasing id.  Readers {!pin} a
    version and evaluate against its {!view}; because BATs and row
    lists are immutable once built, a version shares all row data with
    the live storage and with every other version — publishing and
    pinning are O(#extents + #catalog names), never O(rows).

    A version stays resident while it is the head or while any reader
    holds a pin; {!gc} collects the rest.  The serving tier drops the
    matching result-cache entries when a version goes ({!gc} returns
    the collected ids for exactly that purpose). *)

type version

val id : version -> int
(** The version's id; version ids order publication. *)

val view : version -> Mirror_core.Storage.t
(** A queryable storage view of the version, built lazily on first use
    and shared by every reader of the version.  Reads only: the view
    never journals, and writes through it would be visible to the
    other readers of this version (and to nobody else). *)

val pins : version -> int
(** Live pin count (diagnostics). *)

type t

val create : Mirror_core.Storage.t -> t
(** A store whose version 1 is a snapshot of the storage as given. *)

val head : t -> version
(** The newest published version. *)

val publish : t -> Mirror_core.Storage.t -> version
(** Snapshot the storage and install it as the new head.  The old
    head is retired: it stays readable through existing pins and is
    collected by {!gc} once unpinned. *)

val pin : t -> version
(** Pin the head and return it.  The caller must {!unpin} exactly
    once; a pinned version survives {!gc} no matter how old. *)

val unpin : t -> version -> unit
(** Release one pin.  Over-unpinning raises [Invalid_argument]. *)

val gc : t -> int list
(** Collect every retired, unpinned version; returns their ids
    (newest first is not guaranteed).  The head is never collected. *)

val live : t -> int
(** Versions currently resident (head included). *)

val published : t -> int
(** Versions published over the store's lifetime (including v1). *)

val collected : t -> int
(** Versions reclaimed by {!gc} over the store's lifetime. *)
