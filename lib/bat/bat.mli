(** Binary Association Tables — the physical data model.

    A BAT is an ordered sequence of [(head, tail)] atom pairs with
    monomorphic head and tail columns, after Monet's binary-relational
    kernel on which the Mirror DBMS implements its object algebra.  All
    operators are set-at-a-time: they consume whole BATs and produce
    fresh BATs, never mutating their inputs.

    Scans, element-wise calculations, the join probe, grouped and
    whole-column aggregates and the gathers behind them are written
    over row ranges and run through {!Parkernel.ranges}: sequential
    when no pool is current, morsel-parallel under
    {!Parkernel.with_pool}, with the same result bit for bit.

    Naming follows MIL where a direct equivalent exists ([reverse],
    [mirror], [mark], [semijoin], [kdiff], …).  Operators that Monet
    obtains from its multiplex/[{...}] syntax are exposed as explicit
    functions ([calc2], [group_aggr], …). *)

type t
(** An immutable binary association table. *)

(** Comparison selectors for value-based selections. *)
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Binary calculation operators (element-wise). Arithmetic on two
    integers stays integral; mixed numeric operands promote to float.
    Comparisons yield booleans; [And]/[Or] require booleans. *)
type binop = Add | Sub | Mul | Div | Pow | MinOp | MaxOp | CmpOp of cmp | And | Or

(** Unary calculation operators. *)
type unop = Not | Neg | Log | Exp | Sqrt | Abs | ToFlt

(** Aggregation functions. [Avg] always yields float; [Count] yields
    int; the rest preserve the input's numeric type. *)
type aggr = Sum | Prod | Count | Min | Max | Avg

val apply_cmp : cmp -> Atom.t -> Atom.t -> bool
(** Atom-level comparison semantics (shared with the logical layer). *)

val apply_binop : binop -> Atom.t -> Atom.t -> Atom.t
(** Atom-level calculation semantics.
    @raise Invalid_argument on unsupported operand types. *)

val apply_unop : unop -> Atom.t -> Atom.t
(** Atom-level unary semantics. *)

(** {1 Construction and access} *)

val make : Column.t -> Column.t -> t
(** Pair two equal-length columns. @raise Invalid_argument on length
    mismatch. *)

val empty : Atom.ty -> Atom.ty -> t
(** BAT with zero rows and the given head/tail types. *)

val of_pairs : Atom.ty -> Atom.ty -> (Atom.t * Atom.t) list -> t
(** Build from a pair list; all atoms must match the stated types. *)

val to_pairs : t -> (Atom.t * Atom.t) list
(** All rows in order. *)

val count : t -> int
(** Number of rows. *)

val hty : t -> Atom.ty
(** Head type. *)

val tty : t -> Atom.ty
(** Tail type. *)

val head : t -> Column.t
(** Head column (do not mutate). *)

val tail : t -> Column.t
(** Tail column (do not mutate). *)

val head_at : t -> int -> Atom.t
(** Head atom of row [i]. *)

val tail_at : t -> int -> Atom.t
(** Tail atom of row [i]. *)

val iter : (Atom.t -> Atom.t -> unit) -> t -> unit
(** Row-wise iteration in order. *)

val fold : ('a -> Atom.t -> Atom.t -> 'a) -> 'a -> t -> 'a
(** Row-wise left fold. *)

val equal : t -> t -> bool
(** Same row sequence (order-sensitive). *)

val equal_as_set : t -> t -> bool
(** Same multiset of rows, ignoring order. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering, e.g. [[@0->"a"; @1->"b"]]. *)

(** {1 Unary operators} *)

val reverse : t -> t
(** Swap head and tail columns (constant time in spirit, O(1) here as
    columns are shared). *)

val mirror : t -> t
(** [(h,h)] for every row — turns a head domain into an identity map. *)

val mark : t -> int -> t
(** [mark b base]: keep heads, replace tails by fresh dense oids
    [base, base+1, …] — Monet's [mark]. *)

val number_head : t -> int -> t
(** [(base+i, head_i)] — fresh dense oids paired positionally with the
    original heads.  Together with {!number_tail} this splits a pair
    sequence into two aligned BATs over a fresh oid domain. *)

val number_tail : t -> int -> t
(** [(base+i, tail_i)]. *)

val project : t -> Atom.t -> t
(** Keep heads, set every tail to the given constant. *)

val calc1 : unop -> t -> t
(** Apply a unary operator to every tail. *)

val calc_const : binop -> t -> Atom.t -> t
(** [tail op const] per row. *)

val const_calc : binop -> Atom.t -> t -> t
(** [const op tail] per row. *)

val slice : t -> int -> int -> t
(** [slice b pos len] — positional sub-range (clamped to bounds). *)

val sort_tail : ?desc:bool -> t -> t
(** Stable sort of rows by tail value. *)

val topn : ?desc:bool -> t -> int -> t
(** The first [n] rows of [sort_tail] ([desc] defaults to [true]:
    largest first), selected without sorting the rest. *)

val unique : t -> t
(** Distinct [(head, tail)] pairs, keeping first occurrences in order. *)

val unique_head : t -> t
(** First row for each distinct head value, in order. *)

(** {1 Selections} *)

val select_cmp : t -> cmp -> Atom.t -> t
(** Rows whose tail compares as requested against the constant. *)

val select_range : t -> Atom.t -> Atom.t -> t
(** Rows with [lo <= tail <= hi]. *)

val select_bool : t -> t
(** Rows whose boolean tail is [true]. *)

val filter : (Atom.t -> Atom.t -> bool) -> t -> t
(** Generic row predicate (not plan-expressible; used by tests and
    ad-hoc code). *)

(** {1 Binary operators} *)

val join : t -> t -> t
(** [join l r]: rows [(lh, rt)] for every pair with [l]'s tail equal to
    [r]'s head — Monet's join.  Output follows [l]'s order, with
    multiple matches expanded in [r] order. *)

val leftouterjoin : t -> t -> Atom.t -> t
(** Like {!join} but rows of [l] without a match produce [(lh, default)].
    Int and oid columns match by value whatever their kinds. *)

val semijoin : t -> t -> t
(** Rows of [l] whose head occurs among [r]'s heads. *)

val antijoin : t -> t -> t
(** Rows of [l] whose head does not occur among [r]'s heads. *)

val kunion : t -> t -> t
(** All rows of [l], plus rows of [r] whose head is new. *)

val kdiff : t -> t -> t
(** Alias of {!antijoin} (Monet name). *)

val kintersect : t -> t -> t
(** Alias of {!semijoin} (Monet name). *)

val pair_union : t -> t -> t
(** Distinct pairs of both operands (first-occurrence order). *)

val pair_diff : t -> t -> t
(** Rows of [l] whose exact pair does not occur in [r]. *)

val pair_inter : t -> t -> t
(** Rows of [l] whose exact pair occurs in [r]. *)

val append : t -> t -> t
(** Row concatenation (types must agree). *)

val calc2 : binop -> t -> t -> t
(** Head-aligned element-wise calculation: for each row of [l], find
    the first row of [r] with the same head and emit
    [(head, l.tail op r.tail)]; rows of [l] without a partner are
    dropped. *)

val calc2_pos : binop -> t -> t -> t
(** Positional element-wise calculation over equal-length BATs; heads
    are taken from [l]. *)

(** {1 Grouping and aggregation} *)

val group_aggr : aggr -> t -> t
(** Aggregate tails per distinct head value; groups appear in
    first-occurrence order. *)

val aggr_all : aggr -> t -> Atom.t
(** Aggregate all tails into a single atom.  Empty input yields the
    neutral element for [Sum]/[Count]/[Prod] ([0] / [0] / [1]) and
    raises [Invalid_argument] for [Min]/[Max]/[Avg]. *)

val group_rank : ?desc:bool -> ?limit:int -> link:t -> t -> t
(** Per-group ranking: [link] maps element to group, [key] maps the same
    elements to an orderable value (aligned by head value).  The result
    maps each element to its 0-based rank within its group, ordered by
    key ([desc] defaults to [false]).  Elements of [link] missing from
    [key] are ranked last in input order.  Rows come grouped, groups in
    link-tail order, each in rank order.  With [limit] only the rows of
    rank below it are kept (and ranked), which costs O(n log limit) —
    row for row [select_cmp (group_rank …) Lt (Int limit)]. *)

val histogram : t -> t
(** Occurrence count per distinct tail value, i.e.
    [group_aggr Count (reverse b)]. *)
