(** The flattening compiler: Moa expressions to BAT algebra plans.

    This is the translation of [BWK98] ("Flattening an object algebra
    to provide performance"): a logical expression over structures
    compiles to a bundle of {!Mil} plans, one per BAT of the result's
    flattened representation.  Iteration ([map]) compiles to evaluating
    the body once over the whole element domain — the set-at-a-time
    processing the paper credits for Mirror's scalability — and
    selections/joins become kernel semijoins over link BATs.

    Two context transformations are exposed because extension
    structures participate in them through their registry hooks:
    {!filter_shape} (restrict to surviving contexts) and
    {!rebase_shape} (re-key contexts, duplicating where a context
    participates in several join pairs). *)

exception Unsupported of string
(** Raised for constructs outside the compilable fragment (e.g. a
    [getBL] whose query depends on an enclosing binder, [nest] below
    the top level, or a literal of unsupported shape).  Expressions
    accepted by {!Typecheck.infer} otherwise always compile. *)

exception Ill_formed of string
(** Raised (only under [~check:true]) when the emitted bundle fails
    {!Mirror_bat.Milcheck.verify}, or when {!Moacheck.validate} finds a
    plan envelope disjoint from the logical envelope — either way a
    compiler bug, since well-typed expressions must compile to
    well-formed, envelope-respecting plans. *)

val compile :
  ?specialize:bool ->
  ?check:bool ->
  ?trace:Mirror_util.Trace.t ->
  Storage.t ->
  Expr.t ->
  Extension.planshape
(** Compile a closed, well-typed expression.  [specialize] (default
    true) enables physical specialisations: the hash equi-join (an
    equality conjunct between same-typed keys in a join predicate
    restricts candidate pairs by a key join rather than the full cross
    product), and the hash semijoin (a top-level semijoin whose whole
    predicate is such a conjunct keeps the left elements whose key
    occurs on the right, with no pairs at all); disable it for the
    optimisation-ablation experiments.  [check] (default false)
    analyses the emitted bundle once ({!Mirror_bat.Milcheck}, against
    the storage catalog and extension registry), verifies it, then runs
    {!Moacheck.validate} over the same analysis (translation validation
    of the bundle against the logical envelope).  [trace] records ["flatten.compile"] (with a
    ["bats"] attribute), ["flatten.verify"] and ["flatten.validate"]
    spans.
    @raise Unsupported
    @raise Ill_formed under [~check:true] for a bundle that fails
    verification. *)

val root_dom : Mirror_bat.Mil.t
(** The top-level context domain: the singleton [(@0, @0)]. *)

val filter_shape : Extension.planshape -> Mirror_bat.Mil.t -> Extension.planshape
(** [filter_shape shape survivors] keeps only the contexts that occur
    among the heads of [survivors]. *)

val rebase_shape :
  Extension.flat_env -> Extension.planshape -> Mirror_bat.Mil.t -> Extension.planshape
(** [rebase_shape env shape m] re-keys the bundle onto the new context
    oids of [m] (a BAT new_ctx -> old_ctx). *)
