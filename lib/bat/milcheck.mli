(** The static analysis of MIL plan bundles: one memoised walk.

    {!analyze} walks a bundle of root plans as one CSE-shared DAG
    (structurally equal subplans are one node, as in the executor's
    memo table) and computes, once per distinct node, a {!fact} that
    is the product of three parts:
    {ul
    {- a {!Milprop.t} envelope — head/tail atom types, key, density
       and sortedness flags, and the {e only} cardinality interval;}
    {- the node's effect signature ({!signature}) and the provenance
       of its result columns (which allocation sites or catalog
       columns they may physically be);}
    {- a point row estimate (per-constructor selectivity rules, clamped
       into the interval) and per-cell byte widths for both columns.}}

    Facts are context-free apart from their locus ([id], [path], the
    paths in [diags]): a node's envelope, effects, estimate and widths
    depend only on its subplan and the {!env}, so a root's sub-DAG read
    from a bundle's table costs what analysing that root alone does.
    Each constructor's interval is the tightest the rules know —
    key-aware joins, declared [Foreign] row rules met with the declared
    envelope — so the byte bounds above a foreign operator stay as
    tight as its row bounds.

    Every consumer reads the one table {!t}: the verifier ({!verify}),
    the lint pass ({!lint}), the checked executor ({!exec_checked}),
    [Effcheck]'s hazard and parallelism verdict and [Boundcheck]'s
    footprints and admission bounds. *)

type severity = Error | Warning | Hint

type diag = {
  severity : severity;
  path : string;
      (** Plan-path locus from the root, e.g. ["join:l/reverse/get"].
          Structurally shared subplans are reported at their first
          visit. *)
  op : string;  (** {!Mil.op_name} of the offending node. *)
  message : string;
}

(** {1 Effect signatures} *)

type col = Head | Tail

type source =
  | Input of int * col  (** A column of the n-th plan argument. *)
  | CatalogCol of string * col  (** A column of a catalog entry. *)

type alias = {
  sources : source list;
      (** Input/catalog columns the result column may be physically
          identical to ([[]] = never shared). *)
  maybe_fresh : bool;
      (** The operator may also allocate this column (always true when
          [sources = []]; [Calc2] is shared-or-fresh depending on the
          alignment fast path). *)
}

type eff = {
  head : alias;  (** Provenance of the result's head column. *)
  tail : alias;  (** Provenance of the result's tail column. *)
  reads : (int * col) list;
      (** Input columns whose {e cells} the operator inspects (sharing
          a column without looking at it, as [mark] does, is not a
          read). *)
  writes : (int * col) list;
      (** Input columns the operator may mutate — empty for every
          kernel constructor, possibly non-empty for [Foreign]. *)
  cat_read : string option;  (** Catalog entry consulted ([Get]). *)
  impure : string option;
      (** [Some name] when the operator has external effects and must
          not be elided or reordered. *)
  undeclared : bool;
      (** A [Foreign] operator with no declaration; treated as
          worst-case (aliases and mutates everything). *)
}

(** {1 Facts} *)

module ISet : Set.S with type elt = int

type rowbytes = {
  rb_est : int;  (** Estimated bytes per cell (slot + payload). *)
  rb_max : int option;
      (** Sound per-cell upper bound; [None] when unbounded (strings of
          unknown provenance). *)
}
(** Per-cell byte width of one column.  Every cell costs its 8-byte
    slot ({!Column.bytes} on the measured side); string cells add their
    payload, tracked through the constructors. *)

type fact = {
  node : Mil.t;
  id : int;  (** Post-order index in the bundle: the evaluation order. *)
  path : string;  (** Locus of the node's first visit. *)
  kids : fact array;  (** Facts of {!Mil.children}, in order. *)
  prop : Milprop.t;  (** Types, flags and the sound row interval. *)
  est : int;  (** Point row estimate, inside [prop.card]. *)
  head_rb : rowbytes;
  tail_rb : rowbytes;
  eff : eff;
  head_orig : ISet.t;
  tail_orig : ISet.t;
      (** Allocation sites the result columns may be: [2 * id] / [2 * id
          + 1] for a node's own fresh head/tail, negative numbers for
          catalog columns. *)
  diags : diag list;  (** The node's own verifier diagnostics. *)
}

(** {1 Environment} *)

type foreign = {
  f_arities : int list;  (** The accepted numbers of plan arguments. *)
  f_meta_min : int;  (** Minimum number of meta strings. *)
  f_result : Milprop.t;  (** Envelope of the operator's result. *)
  f_pure : bool;
      (** No external effects: eliding a call (memo hit) or reordering
          calls is unobservable. *)
  f_shares : bool;  (** Result columns may alias argument columns. *)
  f_writes : bool;  (** May mutate argument columns in place. *)
  f_rows : (fact list -> Milprop.card * int) option;
      (** Row interval and estimate of the result from the arguments'
          facts; met with [f_result]'s interval.  [None] leaves the
          result's size unbounded (a [Boundcheck] warning). *)
}
(** The one declaration of a {!Mil.Foreign} physical operator.
    Soundness of [f_result] and [f_rows] is the declaring extension's
    contract. *)

type env = {
  catalog : Catalog.t;  (** What [Get] leaves read. *)
  foreign : string -> foreign option;  (** [None]: unknown (an error). *)
}

val env : ?foreign:(string -> foreign option) -> Catalog.t -> env
(** [foreign] defaults to knowing no operators. *)

(** {1 The analysis} *)

type t = {
  env : env;
  roots : Mil.t list;
  nodes : fact list;  (** Every distinct node, in evaluation (post-)order. *)
  table : fact Mil.Tbl.t;
  diags : diag list;  (** Every node's diagnostics, in [nodes] order. *)
}

val analyze : env -> Mil.t list -> t
(** Analyze a bundle of roots; linear in its distinct nodes. *)

val prop : t -> Mil.t -> Milprop.t
(** The envelope of a node of the bundle; {!Milprop.unknown} for any
    other plan. *)

val reachable : fact -> fact list
(** The distinct nodes of one root's sub-DAG, post-order. *)

val verify : t -> (unit, diag list) result
(** [Error] with every error diagnostic of the bundle. *)

val lint : t -> diag list
(** The verifier's diagnostics plus pattern smells: reverse/mirror
    chains, redundant [unique]s, self-semijoins, appends of empty
    literals, [Slice]-of-[SortTail] not fused to [TopN], selections
    over constant [Project] tails, and statically empty subplans with
    a live consumer. *)

val exec_checked : t -> Mil.session -> Mil.t -> Bat.t
(** Evaluate a root of the bundle and assert its result lies inside the
    inferred envelope — the executor debug mode.
    @raise Failure when the bundle has verification errors, the plan is
    not in the bundle, or the result escapes its envelope. *)

val signature : env -> Mil.t -> eff
(** The effect signature of the plan's {e root} operator, derived from
    the kernel's actual sharing behaviour (e.g. [Reverse] shares both
    columns swapped, selections always gather fresh columns). *)

val kid_paths : string -> Mil.t -> (string * Mil.t) list
(** The children of a node at [path], each with its own path. *)

val errors : diag list -> diag list
(** Just the [Error]-severity diagnostics. *)

val severity_name : severity -> string

val pp_diag : Format.formatter -> diag -> unit
(** ["error at join:l/get (get): unbound catalog name …"]. *)

val diag_to_string : diag -> string
