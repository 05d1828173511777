(** Physical query plans over BATs ("MIL programs").

    The Moa flattening compiler emits values of {!type-t}; the executor
    evaluates them against a {!Catalog.t}.  Plans are pure expression
    DAGs expressed as trees — structurally equal subplans denote the
    same computation, and the executor's memo table evaluates each
    distinct subplan once (common-subexpression elimination), which is
    where the set-at-a-time sharing of the flattened algebra comes
    from.

    Extensions contribute {!constructor-Foreign} operators (e.g. the CONTREP
    structure's probabilistic [getbl] operator); they are resolved
    through the dispatch function supplied when opening a session. *)

type t =
  | Get of string  (** Catalog lookup. *)
  | Lit of { hty : Atom.ty; tty : Atom.ty; pairs : (Atom.t * Atom.t) list }
      (** Small literal BAT (query constants, singleton domains). *)
  | Reverse of t
  | Mirror of t
  | Mark of t * int  (** Fresh dense tail oids from the given base. *)
  | NumberHead of t * int  (** [(base+i, head_i)] positional numbering. *)
  | NumberTail of t * int  (** [(base+i, tail_i)]. *)
  | Project of t * Atom.t  (** Constant tail. *)
  | Calc1 of Bat.unop * t
  | CalcConst of Bat.binop * t * Atom.t
  | ConstCalc of Bat.binop * Atom.t * t
  | Calc2 of Bat.binop * t * t  (** Head-aligned element-wise op. *)
  | SelectCmp of t * Bat.cmp * Atom.t
  | SelectRange of t * Atom.t * Atom.t
  | SelectBool of t
  | Join of t * t
  | LeftOuterJoin of t * t * Atom.t
  | Semijoin of t * t
  | Antijoin of t * t
  | Kunion of t * t
  | PairUnion of t * t
  | PairDiff of t * t
  | PairInter of t * t
  | Append of t * t
  | Unique of t
  | UniqueHead of t
  | GroupAggr of Bat.aggr * t
  | AggrAll of Bat.aggr * t
      (** Single-row result [(@0, v)]; empty inputs yield the
          aggregate's neutral element (and raise for min/max/avg as in
          {!Bat.aggr_all}). *)
  | GroupRank of { link : t; key : t; desc : bool; limit : int option }
      (** {!Bat.group_rank}; [limit = Some k] keeps only the rows of
          rank below [k] in each group. *)
  | SortTail of t * bool  (** [true] = descending. *)
  | Slice of t * int * int
  | TopN of t * int * bool
  | Foreign of { name : string; args : t list; meta : string list }
      (** Extension-registered physical operator. *)

exception Unbound of string
(** Raised by the executor when a [Get] refers to a catalog name that
    is not bound, carrying the offending name. *)

type foreign_fn = name:string -> args:Bat.t list -> meta:string list -> Bat.t
(** Dispatch for {!constructor-Foreign} nodes.  Implementations must be pure
    (same inputs, same output) because results are memoised. *)

(** Executor counters, for plan-quality experiments. *)
type stats = {
  mutable evaluated : int;  (** Operator nodes actually executed. *)
  mutable memo_hits : int;  (** Nodes answered from the memo table. *)
  mutable rows_produced : int;  (** Total rows over executed nodes. *)
  mutable par_ops : int;
      (** Licensed operator calls, built-in or foreign, that scheduled
          morsels on the pool. *)
  mutable par_morsels : int;  (** Morsels scheduled across those calls. *)
}

type par = { pool : Parkernel.pool; safe : t -> bool; morsel : t -> int option }
(** Parallel-execution licence for a session: the domain pool to run
    on, and the Effcheck verdict predicate ({!Effcheck.verdict.safe})
    deciding per node whether its partition is effect-free.  A safe
    node's operator — the same {!Bat} call, or the foreign dispatch —
    runs under {!Parkernel.with_pool}, installed after the node's
    inputs were evaluated, so the licence never reaches an unsafe
    child; [Parkernel.ranges] then splits what it can.  Results
    are identical either way.  [morsel] is an optional per-node
    morsel-size hint (typically [Parkernel.morsel_for] over a
    [Boundcheck] row estimate): when it returns [Some m] the node's
    operator runs under {!Parkernel.with_morsel_size}[ m], so small
    inputs are split across the domains instead of landing in one
    default-sized morsel.  [fun _ -> None] preserves the fixed
    default. *)

type session
(** An execution context: catalog + foreign dispatch + memo table.
    Re-using one session across the plans of a bundle shares their
    common subplans. *)

exception Admission_refused of {
  op : string;  (** {!op_name} of the refused root plan. *)
  est_bytes : int;  (** The bound's point estimate of peak bytes. *)
  peak_bytes : int option;
      (** Static peak upper bound; [None] when the plan is unbounded
          or unanalysed — refused regardless of budget. *)
  budget : int;  (** The session's [max_bytes]. *)
}
(** Raised by {!exec} when a session opened with a [?budget] is asked
    to run a plan whose static peak-memory envelope exceeds the budget
    (or cannot be bounded at all). *)

type budget = {
  max_bytes : int;  (** The byte budget. *)
  bound : t -> (int * int option) option;
      (** [(estimate, peak upper bound)] in bytes of executing a root
          plan, or [None] when the plan cannot be analysed (refused,
          fail-closed) — typically [Boundcheck.admission] over the
          analysed bundle the roots come from. *)
}
(** The admission gate of a session. *)

val session :
  ?cse:bool ->
  ?trace:Mirror_util.Trace.t ->
  ?foreign:foreign_fn ->
  ?par:par ->
  ?budget:budget ->
  Catalog.t ->
  session
(** Open a session.  [cse] (default [true]) controls whether the memo
    table is consulted; switching it off re-executes shared subplans
    and exists for the optimisation-benefit experiments.  [trace]
    (default {!Mirror_util.Trace.null}) receives one span per executed
    operator — nested like the plan, with the produced row count — and
    a zero-duration ["memo=hit"] event per memo-table answer.
    [par] (default: none, fully sequential) enables morsel-parallel
    operator execution gated on its {!type-par} predicate; parallel
    executions add a ["par=<domains>d/<morsels>m"] attribute to their
    span and count in {!stats}' [par_ops] / [par_morsels].  [budget]
    (default: unlimited) arms the admission gate: every distinct root
    handed to {!exec} is first vetted against the budget's bound, and
    plans whose static peak-memory envelope exceeds [max_bytes] — or
    cannot be bounded — raise {!Admission_refused} before any operator
    runs. *)

val exec : session -> t -> Bat.t
(** Evaluate a plan.
    @raise Unbound when a [Get] name is unbound.
    @raise Failure when a [Foreign] operator is unknown.
    @raise Admission_refused when the session's [max_bytes] budget
    cannot accommodate the plan's static peak envelope. *)

val resident_bytes : session -> int
(** Bytes currently held by the session's memo table (its materialized
    intermediate results), physically shared columns counted once.
    Zero for [cse:false] sessions, which retain nothing.  The runtime
    ground truth validated against [Boundcheck]'s static resident
    envelope. *)

val stats : session -> stats
(** The session's counters so far. *)

val trace : session -> Mirror_util.Trace.t
(** The trace the session was opened with ({!Mirror_util.Trace.null}
    when none was given). *)

val profile : session -> (string * float * int) list
(** Per-operator (name, self seconds, evaluations) aggregated from the
    session's trace, most expensive first; empty unless the session was
    opened with an enabled [trace]. *)

val size : t -> int
(** Number of operator nodes (tree size, before sharing). *)

val children : t -> t list
(** Direct subplans, in evaluation order (the order {!exec} evaluates
    them and the order analyzer slot paths [:l]/[:r]/[:0]… follow). *)

val hash : t -> int
(** Structural hash of a plan, consistent with structural equality.
    Bounded traversal, so O(1) even on arbitrarily deep plans;
    collisions between plans that differ only below the bound are
    resolved by the table's equality check, which short-circuits on
    physically shared subterms. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by plans under structural equality, using
    {!val-hash} and an equality with a physical-identity fast path.
    This is what the executor's memo table and the analyzers' per-node
    tables use: CSE equates structurally equal subplans, and probing
    with the very node that populated the table costs one pointer
    comparison. *)

val catalog : session -> Catalog.t
(** The catalog the session was opened on. *)

val cse_enabled : session -> bool
(** Whether the session consults its memo table. *)

val op_name : t -> string
(** Short operator name ("join", "foreign:getbl", …) as used in
    profiles and diagnostics. *)

val cmp_name : Bat.cmp -> string
val binop_name : Bat.binop -> string
val unop_name : Bat.unop -> string
val aggr_name : Bat.aggr -> string
(** Operator spellings shared by {!pp} and the {!Milcheck}
    diagnostics. *)

val pp : Format.formatter -> t -> unit
(** Indented plan rendering. *)

val to_string : t -> string
(** [Format.asprintf "%a" pp]. *)
