(** Ranking: query nets against indexes, and the physical [getbl]
    operator that the CONTREP structure contributes to the kernel. *)

type hit = { doc : int; score : float }

val run : Index.t -> ?limit:int -> Querynet.t -> hit list
(** Rank every indexed document by the query net's belief, descending;
    ties break by document id.  [limit] truncates the result. *)

val run_indexed : Index.t -> ?limit:int -> Querynet.t -> hit list
(** Same contract as {!run}, but candidate documents come from the
    inverted file: only documents containing at least one of the net's
    terms are scored through the oracle — the rest share the
    all-defaults belief.  Equivalent to {!run} (tested), much cheaper
    when query terms are selective. *)

val belief_oracle : Index.t -> doc:int -> string -> float
(** The per-document leaf-belief function {!run} uses (exposed for
    tests and for the thesaurus). *)

val index_occurrences :
  Space.t ->
  occ_ctx:Mirror_bat.Bat.t ->
  occ_term:Mirror_bat.Bat.t ->
  occ_tf:Mirror_bat.Bat.t ->
  len:Mirror_bat.Bat.t ->
  unit
(** Build the space's inverted index from a CONTREP's base
    representation: occurrence BATs that share one head column, and the
    length BAT.  {!getbl_pairs} and {!getblnet_pairs} read the postings
    when they are handed exactly these BATs; for any other occurrence
    BATs they scan the occurrences and count the scan on the space
    ({!Space.scans}).
    @raise Invalid_argument if the occurrence heads are not shared. *)

val getblnet_pairs :
  space:Space.t ->
  net:Querynet.t ->
  occ_ctx:Mirror_bat.Bat.t ->
  occ_term:Mirror_bat.Bat.t ->
  occ_tf:Mirror_bat.Bat.t ->
  len:Mirror_bat.Bat.t ->
  dom:Mirror_bat.Bat.t ->
  Mirror_bat.Bat.t
(** The physical operator behind the Moa-level [getBLnet]: evaluate a
    full inference-network operator tree per context, producing one
    [(ctx, belief)] row per context in [dom] order.  Leaf beliefs use
    the same statistics and fast paths as {!getbl_pairs}. *)

(** The query of {!getbl_pairs}. *)
type query =
  | Linked of { qlink : Mirror_bat.Bat.t; qval : Mirror_bat.Bat.t }
      (** A flattened per-context set: [qlink : qelem->ctx],
          [qval : qelem->str]. *)
  | Broadcast of Mirror_bat.Bat.t
      (** One set for every context of [dom]: its tails are the terms,
          in order (a compiled query literal). *)

val getbl_pairs :
  space:Space.t ->
  occ_ctx:Mirror_bat.Bat.t ->
  occ_term:Mirror_bat.Bat.t ->
  occ_tf:Mirror_bat.Bat.t ->
  len:Mirror_bat.Bat.t ->
  dom:Mirror_bat.Bat.t ->
  query:query ->
  Mirror_bat.Bat.t
(** The physical probabilistic operator behind the Moa-level [getBL]:
    given a CONTREP occurrence decomposition ([occ_oid->ctx],
    [occ_oid->term_string], [occ_oid->tf]), the per-context document
    lengths ([ctx->flt], carried in the representation so that the
    algebra can rebase contexts under joins), the context domain [dom]
    (a [(ctx,ctx)] mirror), and the {!type-query}, produce one
    [(ctx, belief)] row per context x query term, context-major in
    [dom] order, each context's query terms in [qlink] order.  A
    [Broadcast] query answers exactly as the same terms linked to every
    context of [dom] would, without building that |dom| x |terms|
    link.  The
    [space] supplies the collection-global statistics (df, N, average
    length); terms unknown to the space or absent from a context
    contribute the default belief. *)
