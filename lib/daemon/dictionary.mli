(** The distributed data dictionary of figure 1.

    Records which extents exist, their (textual) schemas, and which
    party produced each schema version — the daemons evolve the
    ImageLibrary schema into ImageLibraryInternal, and the dictionary
    is where that evolution is visible. *)

type t

val create : unit -> t
(** Empty dictionary. *)

val register : t -> name:string -> schema:string -> owner:string -> unit
(** Register a new extent. @raise Invalid_argument when the name is
    taken. *)

val evolve : t -> name:string -> schema:string -> by:string -> unit
(** Append a schema version for an existing extent.
    @raise Not_found for unknown extents. *)

val schema_of : t -> string -> string option
(** Latest schema of an extent. *)

val history : t -> string -> (string * string) list
(** All (schema, owner) versions, oldest first; empty for unknown
    names. *)

val extents : t -> string list
(** Registered extents, sorted. *)

(** {1 Write capture}

    Same discipline as {!Store}'s: a daemon runs against a replica
    dictionary, its changes are captured as {!op} values, and the
    orchestrator applies them to the authoritative dictionary when the
    delivery settles. *)

type op =
  | Registered of { name : string; schema : string; owner : string }
  | Evolved of { name : string; schema : string; by : string }

val set_sync : t -> (op -> unit) option -> unit
(** Install (or clear) the write-capture hook. *)

val apply : t -> op -> unit
(** Apply a captured change without re-emitting it (the durability
    journal still fires). *)

val copy : t -> t
(** An independent copy (no capture or journal hook). *)

(** {1 Durability journal} *)

val set_journal : t -> (op -> unit) option -> unit
(** Install (or clear) the journal hook: every change, captured or
    applied, is reported to it after it took effect.  The durable
    orchestrator journals settled schema evolution through it. *)
