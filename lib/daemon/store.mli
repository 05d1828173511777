(** The metadata staging area the daemons read and write.

    In the paper this is the Mirror DBMS's metadata database; during
    pipeline execution daemons exchange intermediate content
    representations (segments, feature vectors, cluster models, visual
    words, text bags) through this store, and the Mirror facade loads
    the finished CONTREP representations out of it afterwards. *)

type t

val create : unit -> t
(** Empty store. *)

val copy : t -> t
(** An independent copy of the contents, with no hook — how the
    in-process transport refreshes a daemon's replica. *)

(** {1 Documents} *)

val register_doc : t -> doc:int -> url:string -> unit
(** Announce a document (idempotent per doc). *)

val url_of : t -> int -> string option
(** URL of a registered document. *)

val docs : t -> int list
(** Registered documents in registration order. *)

(** {1 Segments} *)

val put_segments : t -> doc:int -> Mirror_mm.Segment.region list -> unit
val segments : t -> doc:int -> Mirror_mm.Segment.region list option

(** {1 Feature vectors (per document, per feature space)} *)

val put_features : t -> doc:int -> space:string -> float array array -> unit
(** One vector per segment of the document. *)

val features : t -> doc:int -> space:string -> float array array option

val all_features : t -> space:string -> (int * float array array) list
(** Per-document vectors for one space, in document order — the
    clusterer's input. *)

val feature_spaces : t -> string list
(** Spaces with at least one stored vector set, sorted. *)

(** {1 Cluster models} *)

val put_model : t -> space:string -> Mirror_mm.Autoclass.model -> unit
val model : t -> space:string -> Mirror_mm.Autoclass.model option
val clustered_spaces : t -> string list

(** {1 Content representations} *)

val put_text : t -> doc:int -> (string * float) list -> unit
(** The indexed annotation term bag. *)

val text : t -> doc:int -> (string * float) list option

val add_visual_words : t -> doc:int -> (string * float) list -> unit
(** Merge additional visual words into the document's image CONTREP
    bag (tf-additive). *)

val visual_words : t -> doc:int -> (string * float) list
(** Accumulated visual words (empty list when none). *)

(** {1 Thesaurus} *)

val put_thesaurus : t -> Mirror_thesaurus.Concepts.t -> unit
val thesaurus : t -> Mirror_thesaurus.Concepts.t option

val evidence : t -> Mirror_thesaurus.Assoc.evidence list
(** Per-document (text, visual) evidence for thesaurus construction,
    in document order. *)

(** {1 Writes and the write hook}

    Every mutator above applies one self-contained {!op} — pure data —
    and hands it to the store's one hook.  On the orchestrator's
    authoritative store the hook is the durability journal, which logs
    each op ([Mirror_store.Record.Store_op]); on a daemon's replica
    (a copy in process, a fork-copy in a worker process) it is the
    write capture that carries the daemon's writes back to the
    orchestrator ({!Worker.handle}).  {!apply} is also how an op is
    replayed, and it fires the hook too: a captured write settling on
    the authoritative store is journaled that way.  A fan-out to a
    replica and a replay during recovery run while the store has no
    hook, so nothing echoes. *)

type op =
  | O_doc of int * string
  | O_segments of int * Mirror_mm.Segment.region list
  | O_features of int * string * float array array
  | O_model of string * Mirror_mm.Autoclass.model
  | O_text of int * (string * float) list
  | O_visual of int * (string * float) list
  | O_thesaurus of Mirror_thesaurus.Concepts.t option
      (** One store write.  [O_visual] is tf-additive (not idempotent)
          — apply each op exactly once.  [O_thesaurus None] is the
          durability log's rebuild marker: applying it builds the
          thesaurus from the store's {!evidence} at that point, so
          replay order matters.  The hook always receives the built
          value ([Some]). *)

val set_hook : t -> (op -> unit) option -> unit
(** Install (or clear) the write hook. *)

val apply : t -> op -> unit
(** Apply a write and hand it to the hook.  [O_doc] of a registered
    document changes nothing and fires nothing. *)

val add_op : Buffer.t -> op -> unit
(** Write an op in the log's codec ({!Mirror_util.Codec}): a sub-tag
    character, then its fields.  [O_thesaurus] is written as the bare
    rebuild marker. *)

val read_op : Mirror_util.Codec.cursor -> op
(** Read an op written by {!add_op}; the rebuild marker reads as
    [O_thesaurus None].  @raise Mirror_util.Codec.Bad on damage. *)
