(** The structural-extensibility registry — Moa's "open complex object
    system".

    The kernel knows only [Atomic], [TUPLE] and [SET]; everything else
    is a registered extension that supplies, for its structure: type
    formation checking, the typing/semantics/compilation of its
    operators, how values materialise into BATs, and how its flattened
    bundles behave under the algebra's context transformations
    (filtering by surviving contexts and rebasing onto new context
    oids).  The built-in extensions are LIST ({!Ext_list}) and CONTREP
    ({!Ext_contrep}); new ones register the same way. *)

type planshape = Mirror_bat.Mil.t Shape.t

type flat_env = {
  fresh : int -> int;
      (** [fresh n] allocates a disjoint oid range with room for at
          least [n] values and returns its base. *)
  dom : Mirror_bat.Mil.t;  (** Current context domain, a (ctx,ctx) mirror plan. *)
}
(** What operator compilation may use. *)

type eval_env = { space : string -> Mirror_ir.Space.t option }
(** What naive (object-at-a-time) evaluation and foreign physical
    operators may consult. *)

type store_env = {
  catalog : Mirror_bat.Catalog.t;
  fresh_store : int -> int;  (** Oid-range allocator (same discipline as [fresh]). *)
  space_create : string -> Mirror_ir.Space.t;
      (** Create-or-reset the statistics space registered under a
          name. *)
}
(** What materialisation may use. *)

type foreign = {
  run : eval_env -> args:Mirror_bat.Bat.t list -> meta:string list -> Mirror_bat.Bat.t;
      (** The operator itself. *)
  decl : Mirror_bat.Milcheck.foreign;
      (** Its one static declaration — plan-argument arity, minimum
          meta-string count, result envelope, effect (purity, whether
          result columns may alias or arguments be mutated) and row
          rule — read by every analysis through {!foreign_decl}.  The
          verifier rejects a plan calling an operator no extension
          declares; well-behaved operators are pure ([f_pure = true],
          [f_shares = f_writes = false]). *)
  summed : string option;
      (** The operator's per-context summed form, when it has one: a
          foreign operator that takes the same plan arguments and meta
          strings and returns, for each row of the flattening domain
          ([flat_env.dom]), in that order and with its heads, the sum
          from [0.0] of the tails of this operator's rows headed by that
          context, in row order — [0.0] where there are none.  That is
          [sum] over the set this operator's result is split into, so
          {!Flatten} compiles such a [sum] to one call of the summed
          form where its declaration accepts the arguments. *)
}
(** One physical operator contributed by an extension. *)

module type S = sig
  val name : string
  (** Structure name as it appears in types ("LIST", "CONTREP", …). *)

  val arity : int
  (** Number of type parameters. *)

  val check_type : Types.t list -> (unit, string) result
  (** Validate the type parameters. *)

  val ops : string list
  (** Operator names owned by this extension (globally unique). *)

  val op_type : op:string -> args:Types.t list -> (Types.t, string) result
  (** Result type of an operator; [args] includes the receiver first. *)

  val op_eval : eval_env -> op:string -> args:Value.t list -> Value.t
  (** Reference object-at-a-time semantics. *)

  val op_flatten :
    flat_env ->
    op:string ->
    arg_tys:Types.t list ->
    raw:Expr.t list ->
    args:planshape list ->
    planshape
  (** Compile an operator application over flattened arguments. *)

  val materialize :
    store_env ->
    recurse:(path:string -> ty:Types.t -> dom:(int * Value.t) list -> planshape) ->
    path:string ->
    ty_args:Types.t list ->
    dom:(int * Value.t) list ->
    planshape
  (** Store per-context values of this structure under catalog names
      prefixed by [path]; [recurse] materialises nested kernel
      structures. *)

  val filter_flat :
    recurse:(planshape -> Mirror_bat.Mil.t -> planshape) ->
    meta:string list ->
    bats:Mirror_bat.Mil.t list ->
    subs:planshape list ->
    survivors:Mirror_bat.Mil.t ->
    planshape
  (** Restrict the bundle to surviving context oids (heads of
      [survivors]). *)

  val rebase_flat :
    flat_env ->
    recurse:(flat_env -> planshape -> Mirror_bat.Mil.t -> planshape) ->
    meta:string list ->
    bats:Mirror_bat.Mil.t list ->
    subs:planshape list ->
    m:Mirror_bat.Mil.t ->
    planshape
  (** Re-key the bundle onto new context oids; [m] maps new ctx -> old
      ctx (possibly duplicating old contexts). *)

  val reify :
    members:(Mirror_bat.Mil.t -> int -> int list) ->
    atom:(Mirror_bat.Mil.t -> int -> Mirror_bat.Atom.t) ->
    recurse:(planshape -> int -> Value.t) ->
    meta:string list ->
    bats:Mirror_bat.Mil.t list ->
    subs:planshape list ->
    ctx:int ->
    Value.t
  (** Rebuild the logical value of one context from evaluated BATs,
      through the reifier's shared indexes (built once per evaluated
      BAT, not once per context): [members link c] is the heads of
      [link]'s rows whose tail is [c], in row order; [atom bat o] is
      the tail of [bat]'s first row with head [o], and fails with
      ["reify: no value for context @o"] when there is none. *)

  val foreign_ops : (string * foreign) list
  (** Physical operators this extension contributes to the kernel
      (dispatched from {!Mirror_bat.Mil.Foreign} nodes), each declared
      once. *)

  val op_envelope :
    op:string -> args:Moaprop.t list -> ty:Types.t -> top:(Types.t -> Moaprop.t) -> Moaprop.t
  (** Logical envelope of an operator application, given the envelopes
      of its arguments (receiver first) and the already-checked result
      type [ty]; [top] is the coarsest envelope of a type.  Returning
      [top ty] is always sound — override to state ranges, cardinality
      bounds or orderedness (consulted by [Moacheck]). *)

  val prop_flat :
    ctx:Mirror_bat.Milprop.card ->
    prop:Moaprop.t ->
    meta:string list ->
    nbats:int ->
    nsubs:int ->
    Mirror_bat.Milprop.t option list * (Moaprop.t * Mirror_bat.Milprop.card) list
  (** Map a logical envelope of this structure onto its flattened
      bundle, for translation validation: given the context-count
      bounds [ctx] (how many instances the bundle holds) and the
      per-instance envelope [prop], return one expected MIL envelope
      option per bundle BAT ([None] claims nothing) and, for each
      nested sub-shape, the element envelope and context bounds to
      validate it under.  The returned lists must have [nbats] and
      [nsubs] entries; all-[None]/[Unknown] is always sound. *)

  val bind_value :
    path:string ->
    recurse:(path:string -> ty:Types.t -> Value.t -> Value.t) ->
    ty_args:Types.t list ->
    Value.t ->
    Value.t
  (** Rewrite a stored logical value so it knows where it was
      materialised (e.g. CONTREP binds its statistics space); called by
      the storage manager after {!materialize} with the same [path]. *)
end

val register : (module S) -> unit
(** Make an extension available.  Registration is keyed by structure
    name and idempotent: re-registering an existing name is a no-op.
    A new name whose operator list clashes with an already-registered
    operator raises [Invalid_argument]. *)

val find : string -> (module S) option
(** Look up by structure name. *)

val find_exn : string -> (module S)
(** @raise Invalid_argument for unknown structures. *)

val find_op : string -> (module S) option
(** Look up by operator name. *)

val registered : unit -> string list
(** Registered structure names, sorted. *)

val foreign_dispatch : eval_env -> Mirror_bat.Mil.foreign_fn
(** The kernel-level dispatch function combining every registered
    extension's physical operators. *)

val summed_form : string -> nargs:int -> string option
(** The summed form ({!foreign}[.summed]) of a physical operator
    called with [nargs] plan arguments, when it declares one whose
    arities accept [nargs]. *)

val foreign_decl : string -> Mirror_bat.Milcheck.foreign option
(** The declaration of a physical operator, searched across every
    registered extension — the [foreign] half of a
    {!Mirror_bat.Milcheck.env}. *)
