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

(** {1 Changes and the write hook}

    Same discipline as {!Store}'s: {!register} and {!evolve} each
    apply one {!op} and hand it to the dictionary's one hook — the
    durability journal on the orchestrator's authoritative dictionary,
    the write capture on a daemon's replica. *)

type op =
  | Registered of { name : string; schema : string; owner : string }
  | Evolved of { name : string; schema : string; by : string }

val set_hook : t -> (op -> unit) option -> unit
(** Install (or clear) the write hook. *)

val apply : t -> op -> unit
(** Apply a change and hand it to the hook — how a captured change
    settles on the authoritative dictionary and how a journaled one is
    replayed.  @raise Invalid_argument or [Not_found] as {!register}
    and {!evolve} do. *)

val copy : t -> t
(** An independent copy, with no hook. *)

val add_op : Buffer.t -> op -> unit
(** Write a change in the log's codec ({!Mirror_util.Codec}). *)

val read_op : Mirror_util.Codec.cursor -> op
(** Read a change written by {!add_op}.
    @raise Mirror_util.Codec.Bad on damage. *)
