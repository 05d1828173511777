(** The Mirror DBMS facade.

    Ties the whole architecture together the way the demo application
    uses it: schema definition and querying in the Moa concrete syntax
    (§2/§3), the daemon pipeline of figure 1 to build the multimedia
    metadata (§4/§5.1), and the retrieval application with thesaurus
    query formulation and relevance feedback (§5.2). *)

type t

type outcome =
  | Defined of string  (** A [define] statement took effect. *)
  | Bound of string  (** A [let] binding took effect (view semantics). *)
  | Inserted of string  (** An [insert into] statement took effect. *)
  | Deleted of string * int  (** [delete from N where P;] removed n rows. *)
  | Evaluated of Value.t  (** A query statement's result. *)

val create : unit -> t
(** Fresh database (registers the built-in structure extensions). *)

val of_storage : Storage.t -> t
(** Wrap an existing storage manager (e.g. one loaded with
    {!Mirror_store.Snapshot.load}).  Demo-application state (thesaurus, adaptation,
    URL maps) starts empty — it is session state, not database
    state. *)

val storage : t -> Storage.t
(** The underlying storage manager (catalog access, direct loads). *)

(** {1 Moa programs} *)

val define : t -> name:string -> Types.t -> (unit, string) result
(** Register an extent type programmatically. *)

val load : t -> name:string -> Value.t list -> (int list, string) result
(** Populate an extent; returns assigned element oids. *)

val exec_program :
  t -> ?bindings:(string * Expr.t) list -> string -> (outcome list, string) result
(** Parse and execute a [;]-separated Moa program. *)

val run_query : t -> ?bindings:(string * Expr.t) list -> string -> (Value.t, string) result
(** Parse and run one query. *)

val run_expr : t -> Expr.t -> (Value.t, string) result
(** Run an already-built expression. *)

(** {1 The demo image library (§5)} *)

val build_image_library :
  t ->
  ?daemons:Mirror_daemon.Daemon.t list ->
  ?journal:(Mirror_daemon.Store.op -> unit) ->
  scenes:Mirror_mm.Synth.scene array ->
  unit ->
  (Mirror_daemon.Orchestrator.report, string) result
(** Ingest a corpus through the daemon pipeline, then load both the
    application schema [ImageLibrary] (§5.2) and the internal dual-
    coded schema [ImageLibraryInternal] with the pipeline's CONTREP
    content, and adopt the pipeline's association thesaurus.
    [?journal] becomes the write hook of the pipeline's authoritative
    metadata store ({!Mirror_daemon.Store.set_hook}), so the
    durability layer logs every write that store applies. *)

val library_size : t -> int
(** Number of images loaded into the library. *)

(** How {!search} combines the two coding systems. *)
type mode =
  | Text_only  (** Rank on the annotation CONTREP only. *)
  | Image_only  (** Thesaurus-formulated query on the image CONTREP. *)
  | Dual  (** Mean of both rankings (Paivio's dual coding). *)

val thesaurus_lookup : t -> ?limit:int -> string -> (string * float) list
(** Concepts (visual words) associated with a text query, adaptation
    applied — the §5.2 query-formulation step. *)

val ranking_query : ?limit:int -> field:string -> string list -> Expr.t
(** The expression {!rank_by_terms} runs: the top [limit] (default 10)
    of the ranking below, as a LIST. *)

val rank_by_terms :
  t -> ?limit:int -> field:string -> string list -> ((string * float) list, string) result
(** Run the paper's ranking query
    [map\[sum(getBL(THIS.field, query))\](ImageLibraryInternal)] (with
    source bookkeeping) and return (url, score) best first. *)

val search :
  t -> ?limit:int -> ?mode:mode -> string -> ((string * float) list, string) result
(** The full retrieval application: tokenize the text query, formulate
    the image query through the thesaurus, rank with the inference
    network, combine per [mode] (default [Dual]). *)

val give_feedback : t -> query:string -> judgements:(string * bool) list -> unit
(** Record relevance judgements (url, relevant?) for a query: the
    thesaurus adaptation strengthens or weakens the (term, concept)
    associations that produced each judged image — the paper's
    "machine learning techniques to adapt the thesaurus … across query
    sessions". *)

val set_feedback_hook :
  t -> (query:string -> judgements:(string * bool) list -> unit) option -> unit
(** Install (or clear) a hook fired after {!give_feedback} applies —
    the durability layer logs the judgement so the adaptation state
    can be rebuilt deterministically after a crash. *)

val replay_feedback : t -> query:string -> judgements:(string * bool) list -> unit
(** Re-apply a logged judgement during recovery (never re-fires the
    hook). *)

val visual_bag : t -> string -> (string * float) list
(** The visual words of a library image (by URL); empty when
    unknown. *)

val search_refined :
  t ->
  ?limit:int ->
  query:string ->
  judgements:(string * bool) list ->
  unit ->
  ((string * float) list, string) result
(** Within-session query improvement: the image-side query is
    reformulated Rocchio-style — towards the visual-word distribution
    of judged-relevant images and away from judged-irrelevant ones —
    and the reformulated query is run in [Dual] mode.  This is the
    "relevance feedback is used to improve the current query" loop of
    §5.2 (complementing {!give_feedback}, which adapts the thesaurus
    across sessions). *)
