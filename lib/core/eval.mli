(** Query execution: flatten, run on the kernel, reify.

    [query] is the production path: type-check, optionally optimise,
    compile with {!Flatten}, execute the plan bundle in one {!Mil}
    session (so shared subplans evaluate once), and rebuild the logical
    result value.  The report carries executor statistics for the
    benchmark harness. *)

type report = {
  value : Value.t;  (** The logical result. *)
  result_type : Types.t;  (** Inferred type of the expression. *)
  plan_bats : int;  (** BATs in the result bundle. *)
  plan_nodes : int;  (** Total plan-tree operator nodes (before CSE). *)
  evaluated : int;  (** Kernel operators actually executed. *)
  memo_hits : int;  (** Plan nodes served by the memo table. *)
  par_ops : int;
      (** Operators that ran on the morsel-parallel kernel (0 unless a
          {!Mirror_bat.Parkernel.default_pool} is configured and the
          Effcheck verdict licensed the plan). *)
  par_morsels : int;  (** Morsels scheduled across those operators. *)
  analysis : Mirror_bat.Milcheck.t Lazy.t;
      (** The one static analysis of the executed bundle.  Analysed
          when first forced, or during the query when a
          {!Mirror_bat.Parkernel.default_pool}, a [max_bytes] budget or
          [check] reads it; nothing on the plain query path does. *)
  bounds : bounds Lazy.t;
      (** {!Mirror_bat.Boundcheck}'s footprints over [analysis]. *)
  actual_bytes : int;
      (** Bytes actually held by the session's memo after execution
          ({!Mirror_bat.Mil.resident_bytes}). *)
}

and bounds = {
  est_rows : int;  (** Row estimate summed over the bundle's root plans. *)
  est_bytes : int;  (** Estimated resident footprint of the DAG. *)
  peak_bytes : int option;
      (** Sound upper bound on the resident footprint; [None] when an
          undeclared foreign leaves the plan unbounded. *)
}

val compile :
  ?optimize:bool ->
  ?specialize:bool ->
  ?check:bool ->
  ?trace:Mirror_util.Trace.t ->
  Storage.t ->
  Expr.t ->
  (Types.t * Extension.planshape, string) result
(** The compile step every query path shares: typecheck, then (when
    [optimize], default true) [Optimize.rewrite], {!Flatten.compile}
    and [Milopt.rewrite].  Returns the expression's type and the plan
    bundle, or the first stage's error message.  [specialize], [check]
    and [trace] are as for {!query}, which runs this step first. *)

val query :
  ?cse:bool ->
  ?optimize:bool ->
  ?specialize:bool ->
  ?check:bool ->
  ?trace:Mirror_util.Trace.t ->
  ?max_bytes:int ->
  Storage.t ->
  Expr.t ->
  (report, string) result
(** Run a closed expression.  [cse], [optimize] and [specialize] (all
    default true) exist for the ablation experiments; see
    {!Flatten.compile} for [specialize].  [check] (default false) is
    the debug mode: the bundle is verified by {!Mirror_bat.Milcheck},
    the flattening is translation-validated against the {!Moacheck}
    logical envelope, the {!Plancheck.differential} checker vets both
    optimiser stages, and every executed plan's result BAT is compared
    against its inferred property envelope.  [trace] (default
    {!Mirror_util.Trace.null}) records one span per pipeline phase —
    ["typecheck"], ["optimize"], ["flatten.compile"], ["milopt"],
    ["execute"] — with the kernel's per-operator spans nested under
    ["execute"] — plus ["boundcheck"] whenever the bundle is analysed
    (before ["execute"] under a domain pool, a budget or [check], else
    when [analysis] or [bounds] is first forced).  [max_bytes] sets the
    session's admission budget: a root whose resident envelope, read
    from the bundle's analysis ({!Mirror_bat.Boundcheck.admission}),
    exceeds it (or is unbounded) is refused before evaluation and
    reported as an [Error]. *)

val query_value : Storage.t -> Expr.t -> (Value.t, string) result
(** Just the value. *)

val rollup : Mirror_util.Trace.t -> (string * Mirror_util.Trace.agg) list
(** Per-operator rollup of a {!query} trace's ["execute"] spans, most
    self time first — the table {!explain_analyze} prints.  Memo-hit
    events count as calls and in [flagged], so over one query the
    calls less the flagged events are the report's [evaluated] and the
    flagged events its [memo_hits]. *)

val profile : Storage.t -> Expr.t -> ((string * float * int) list, string) result
(** {!query} under a fresh trace, read through {!rollup}: (operator,
    total self seconds, calls), most expensive first. *)

val explain : ?optimize:bool -> Storage.t -> Expr.t -> (string, string) result
(** The compiled plan bundle, pretty-printed. *)

val explain_analyze :
  ?optimize:bool ->
  ?cse:bool ->
  ?max_bytes:int ->
  Storage.t ->
  Expr.t ->
  (string, string) result
(** Run the query under a fresh trace and render the result: headline
    statistics including the static bounds line ([bounds: est N rows /
    E, peak P (actual A)]), the phase span tree (with per-operator
    rows, times and memo-hit events nested under ["execute"]) and a
    per-operator rollup table.  [max_bytes] is passed through to
    {!query}'s admission gate.  Backs [mirror_cli explain analyze] and
    the REPL's [.trace]. *)

val reify :
  lookup:(Mirror_bat.Mil.t -> Mirror_bat.Bat.t) ->
  Extension.planshape ->
  Value.t
(** Rebuild the top-level (context @0) value of a plan bundle given a
    plan evaluator — used by extensions and tests. *)
