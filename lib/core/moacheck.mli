(** Moa-level shape analysis and flattening translation validation.

    An abstract interpreter over Moa expressions in the {!Moaprop}
    domain, mirroring [Milcheck]'s design one level up: for every
    subexpression it infers a conservative envelope (structure
    skeleton, numeric ranges, cardinality bounds, emptiness, list
    orderedness, CONTREP belief ranges) and reports structured
    diagnostics whose paths locate the offending subexpression.

    {!validate} is the translation validator: after [Flatten.compile]
    it maps the logical envelope of every subexpression onto the
    compiled bundle and checks, BAT by BAT, that it intersects the
    physical envelope [Milcheck] infers for the corresponding plan.
    Both sides over-approximate the same concrete BAT, so an empty
    intersection certifies a broken flattening rule for that query. *)

type env = {
  extent_type : string -> Types.t option;
  extent_prop : string -> Moaprop.t option;
      (** Envelope of an extent's current contents; [None] falls back
          to the type-derived top envelope. *)
}

val env_of_storage : Storage.t -> env
(** Exact envelopes computed (and cached) from the stored extents. *)

val top_of_type : Types.t -> Moaprop.t
(** The weakest envelope with the skeleton of the given type. *)

val infer : env -> Expr.t -> Moaprop.t * Moaprop.diag list
(** Envelope of a closed expression, plus all diagnostics produced
    along the way.  Never raises: unknown constructs degrade to
    {!Moaprop.Unknown} envelopes with [Error] diagnostics. *)

val verify : env -> Expr.t -> (Moaprop.t, Moaprop.diag list) result
(** [Ok] iff inference produced no [Error]-severity diagnostic. *)

val lint : env -> Expr.t -> Moaprop.diag list
(** Inference diagnostics plus logical-level smells: statically
    unsatisfiable (or constantly true) selections, provably empty
    subexpressions (flagged at the topmost dead node only), redundant
    unnest-of-nest, and [getBL] over provably empty content or
    queries. *)

val validate :
  Storage.t ->
  Expr.t ->
  Mirror_bat.Milcheck.t ->
  Extension.planshape ->
  (int, Moaprop.diag list) result
(** Translation validation of a compiled bundle against the logical
    envelope (see above), reading the physical envelopes from the
    bundle's analysis (which must cover every plan of the shape).
    [Ok n] reports the [n] envelope comparisons made. *)
