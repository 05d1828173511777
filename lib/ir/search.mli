(** The physical belief operators that the CONTREP structure
    contributes to the kernel, and the one way to index a collection of
    term bags for them.  Every ranking — a compiled [getBL]/[getBLnet]
    plan and the thesaurus's concept ranking alike — runs one of these
    operators over a space's inverted index. *)

val index_bags :
  Space.t ->
  base:int ->
  (int * (string * float) list) list ->
  Mirror_bat.Bat.t * Mirror_bat.Bat.t * Mirror_bat.Bat.t * Mirror_bat.Bat.t
(** [index_bags space ~base docs] registers each [(ctx, bag)] with
    [space], in order, and returns the CONTREP base representation
    [(occ->ctx, occ->term, occ->tf, ctx->length)]: one occurrence per
    bag entry, in [docs] order, with oids [base], [base + 1], … in one
    head column the three occurrence BATs share, and one length row
    per context.  It attaches the space's inverted index to exactly
    these BATs: {!getbl_pairs}, {!getbl_sum} and {!getblnet_pairs} read
    the postings when they are handed them; for any other occurrence
    BATs they scan the occurrences and count the scan on the space
    ({!Space.scans}).
    @raise Invalid_argument if a context appears twice. *)

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
    the same statistics and fast paths as {!getbl_pairs}, and the
    candidate scorer of {!getbl_sum}: the net is evaluated once per
    context a query term's postings name, and every other context gets
    the all-defaults net, evaluated once. *)

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

val getbl_sum :
  space:Space.t ->
  occ_ctx:Mirror_bat.Bat.t ->
  occ_term:Mirror_bat.Bat.t ->
  occ_tf:Mirror_bat.Bat.t ->
  len:Mirror_bat.Bat.t ->
  dom:Mirror_bat.Bat.t ->
  Mirror_bat.Bat.t ->
  Mirror_bat.Bat.t
(** The summed form of {!getbl_pairs} for a query literal (its tails
    are the terms, in order): one [(ctx, sum)] row per row of [dom], in
    [dom] order, bitwise what summing the [Broadcast] result per context
    from [0.0] ([Bat.group_aggr Sum]) and giving every other context of
    [dom] [0.0] ([Bat.leftouterjoin]) produce.  Over a strictly
    ascending [dom] (a compiled plan's domain) only the query terms'
    postings are read: each candidate context sums its leaf beliefs in
    literal order, and every other context shares one all-defaults
    sum.  Any other [dom] is answered by that composition itself. *)
