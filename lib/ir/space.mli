(** Collection statistics ("stats" in the paper's queries).

    Every CONTREP field has a statistics space recording the global
    collection knowledge the inference network needs: number of
    documents, document lengths, document frequency per term.  The
    [getBL] operator — logical and physical — reads beliefs off these
    statistics. *)

type t

val create : string -> t
(** Fresh empty space with the given name. *)

val name : t -> string
(** The space's name (the catalog prefix of its extent). *)

val vocab : t -> Vocab.t
(** The space's term dictionary. *)

val add_doc : t -> doc:int -> (string * float) list -> int list
(** Register one document's term bag: updates [ndocs], the document's
    length (sum of tfs) and per-term document frequencies.  Returns the
    interned term ids, aligned with the input bag.
    @raise Invalid_argument if [doc] was already added. *)

val ndocs : t -> int
(** Number of registered documents. *)

val df : t -> int -> int
(** Document frequency of a term id (0 for unknown ids). *)

val doc_len : t -> int -> float
(** Length of a document (0 when unknown). *)

val avg_doc_len : t -> float
(** Mean document length (0 for an empty space). *)

val mem_doc : t -> int -> bool
(** Was this document registered? *)

val belief : t -> tf:float -> term:int -> float -> float
(** [belief space ~tf ~term doclen] — the InQuery default belief of a
    document with the given length containing [term] [tf] times; see
    {!Belief.belief}. *)

(** {1 Physical index}

    The storage manager attaches an inverted index to the space when it
    materialises the CONTREP occurrences.  The index is
    keyed by the physical identity of the occurrence BATs' shared head
    column and of the length BAT's columns, so physical operators can
    recognise "I was handed the unfiltered base representation" and
    skip the occurrence scan. *)

type postings = { ctxs : int array; tfs : float array; lens : float array }
(** One term's postings as flat arrays, in ascending context order:
    [tfs.(j)] is the term's summed tf in context [ctxs.(j)] and
    [lens.(j)] that context's length as the length BAT states it (the
    last row for the context, 0 when it has none). *)

val no_postings : postings
(** The postings of a term no context contains. *)

val set_index :
  t -> heads:int array -> len:Mirror_bat.Bat.t -> (string, postings) Hashtbl.t -> unit
(** Attach the inverted index: a term's postings, built from the
    occurrences whose oid column is [heads] and from the length BAT
    [len]. *)

val index :
  t -> heads:int array -> len:Mirror_bat.Bat.t -> (string, postings) Hashtbl.t option
(** The postings, provided [heads] is physically the indexed occurrence
    column and [len] has physically the indexed columns ([==]); [None]
    otherwise (filtered or rebased occurrences). *)
