(** The Moa object algebra — logical query expressions.

    Binding operators ([map], [select], [join], [semijoin]) carry
    explicit variable names; the concrete syntax's [THIS] is resolved
    to the innermost binder by the parser.  Extension operators
    ([getBL], [tolist], …) are routed through the extension registry by
    operator name. *)

type t =
  | Extent of string  (** A named collection. *)
  | Lit of Value.t * Types.t  (** Literal with its type. *)
  | Var of string  (** A bound variable (THIS). *)
  | Field of t * string  (** Tuple projection. *)
  | Tuple of (string * t) list  (** Tuple construction. *)
  | Map of { v : string; body : t; src : t }
      (** [map\[body\](src)] — evaluate [body] with [v] bound to each
          element. *)
  | Select of { v : string; pred : t; src : t }
      (** [select\[pred\](src)]. *)
  | Join of { v1 : string; v2 : string; pred : t; left : t; right : t; l1 : string; l2 : string }
      (** [join\[pred\](left, right)] — set of [TUPLE<l1:_, l2:_>]
          combining every pair that satisfies [pred]. *)
  | Semijoin of { v1 : string; v2 : string; pred : t; left : t; right : t }
      (** Elements of [left] with at least one witness in [right]. *)
  | Aggr of Mirror_bat.Bat.aggr * t
      (** Aggregate over a [SET<Atomic<_>>].  Over an empty set, [Sum]
          and [Count] yield 0, [Prod] 1, and [Min]/[Max]/[Avg] the base
          type's zero (a deliberate total semantics; see DESIGN.md). *)
  | Binop of Mirror_bat.Bat.binop * t * t  (** Atomic calculation. *)
  | Unop of Mirror_bat.Bat.unop * t
  | Exists of t  (** Set non-emptiness. *)
  | Member of t * t  (** [in(x, set)] for atomic [x]. *)
  | Union of t * t  (** Set union over [SET<Atomic<_>>] (deduplicating). *)
  | Diff of t * t
  | Inter of t * t
  | Flat of t  (** [SET<SET<T>> -> SET<T>]. *)
  | Nest of { src : t; key : string; inner : string }
      (** Group a top-level set of tuples by an atomic field:
          [SET<TUPLE<fs>> -> SET<TUPLE<key, inner: SET<TUPLE<fs>>>>]. *)
  | Unnest of { src : t; field : string }
      (** NF2 unnesting: expand a set-valued tuple field, pairing every
          element with its row's other fields.  When the inner elements
          are tuples their fields merge into the result tuple; otherwise
          they keep the [field] label. *)
  | ExtOp of { op : string; args : t list }
      (** Extension operator; [args] start with the receiving value. *)

val lit_int : int -> t
val lit_flt : float -> t
val lit_str : string -> t
val lit_bool : bool -> t

val lit_str_set : string list -> t
(** A literal [SET<Atomic<str>>] — the shape of the paper's [query]
    argument to [getBL]. *)

val map : v:string -> body:t -> t -> t
(** Constructor helper ([Map]). *)

val select : v:string -> pred:t -> t -> t
(** Constructor helper ([Select]). *)

val getbl : t -> t -> t
(** [getBL(contrep, query)]. *)

val sum : t -> t
(** [Aggr (Sum, e)]. *)

val aggr_name : Mirror_bat.Bat.aggr -> string
(** "sum", "count", … (concrete-syntax keyword). *)

val binop_sym : Mirror_bat.Bat.binop -> string
(** "+", "=", "and", … (concrete-syntax symbol). *)

val unop_name : Mirror_bat.Bat.unop -> string
(** "not", "log", … (concrete-syntax keyword). *)

val op_name : t -> string
(** Short constructor name ("map", "select", "sum", "+", extension op
    name, …) — used as the step label in diagnostic paths. *)

val free_vars : t -> string list
(** Unbound variables, each listed once, in first-use order. *)

val size : t -> int
(** Number of AST nodes. *)

val to_buffer : Buffer.t -> t -> unit
(** Append a concrete-syntax-like rendering: binders print as named
    variables ([map\[v: body\](src)]), literals as {!Value.to_buffer},
    arguments separated by [", "].  No line is ever broken, whatever
    the size; {!Normalize.key} is this text of the canonical form. *)

val to_string : t -> string
(** The text {!to_buffer} appends: one line at any size. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string} as one token. *)
