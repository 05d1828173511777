(** Concept-as-pseudo-document association thesaurus.

    Following the observation the paper borrows from PhraseFinder
    [JC94]: "an association thesaurus can be seen as measuring the
    belief in a concept (instead of in a document) given the query".
    Each visual word (cluster) becomes a pseudo-document containing the
    annotation terms of the images it appears in (tf-weighted).  The
    pseudo-documents form a CONTREP collection, indexed by
    {!Mirror_ir.Search.index_bags} like any materialised extent, and
    ranking them with the physical [getBLnet] operator
    ({!Mirror_ir.Search.getblnet_pairs}) yields the concepts relevant to
    a text query — which is exactly how the demo formulates image
    queries from initial textual queries. *)

type t

val build : Assoc.evidence list -> t
(** Construct the concept collection.  Only documents that carry both
    text and visual evidence contribute. *)

val concept_count : t -> int
(** Number of concepts with a non-empty pseudo-document. *)

val concepts : t -> string list
(** The concept (visual-word) names, in id order. *)

val associate : t -> ?limit:int -> Mirror_ir.Querynet.t -> (string * float) list
(** Concepts ranked by belief given the text query, best first, ties
    by concept id; the paper's thesaurus lookup.  [limit] defaults to
    10. *)

val formulate : t -> ?limit:int -> Mirror_ir.Querynet.t -> Mirror_ir.Querynet.t
(** Build the image-side query: a [#wsum] over the top associated
    concepts, weighted by their association beliefs.  An empty
    association yields an empty [#sum]. *)
