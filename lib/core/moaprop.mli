(** The Moa-level abstract domain — logical envelopes and diagnostics.

    {!Moacheck} interprets Moa expressions over this domain: an
    envelope states facts that must hold of the value the expression
    evaluates to (structure skeleton, numeric ranges, cardinality
    bounds, list orderedness).  As in {!Mirror_bat.Milprop}, [None] and
    {!Unknown} always mean "no claim", never "known absent", so
    inference only ever errs towards fewer guarantees.

    The {!diag} type here is also the structured error/warning/hint
    currency of {!Typecheck} and {!Moacheck}: every diagnostic carries
    an expression path (slash-separated constructor names from the
    root) locating the offending subexpression. *)

module Atom = Mirror_bat.Atom
module P = Mirror_bat.Milprop

(** {1 Diagnostics} *)

type severity = Mirror_bat.Milcheck.severity = Error | Warning | Hint

type diag = Mirror_bat.Milcheck.diag = {
  severity : severity;
  path : string;  (** Slash-separated path of constructor names. *)
  op : string;  (** Constructor name of the offending node. *)
  message : string;
}
(** The MIL layer's diagnostic, so both layers share one printer
    ({!Mirror_bat.Milcheck.pp_diag}, e.g. [error at map/select (select):
    predicate is not boolean]) and one {!Mirror_bat.Milcheck.errors}. *)

(** {1 The domain} *)

type t =
  | Unknown  (** No claim at all (lattice top). *)
  | Atomic of { ty : Atom.ty; lo : float option; hi : float option; bconst : bool option }
      (** An atom of base type [ty]; numeric values lie in [[lo, hi]]
          (when stated; ints are represented exactly as floats), and a
          boolean is constantly [bconst] when stated. *)
  | Tuple of (string * t) list  (** A tuple with exactly these fields. *)
  | Set of { card : P.card; elem : t }
      (** A set whose size lies within [card] and whose every element
          satisfies [elem]. *)
  | Xprop of { ext : string; card : P.card; elem : t; ordered : bool }
      (** An extension structure: [ext] names the extension, [card]
          bounds the element count, every element satisfies [elem],
          and [ordered] claims a semantically meaningful element
          order (LIST). *)

val atomic : Atom.ty -> t
(** Atom of the given type, no range facts. *)

val atomic_range : Atom.ty -> float option -> float option -> t

val bool_const : bool -> t
(** A boolean known to be constantly [b]. *)

val card_of : t -> P.card option
(** Cardinality bounds of a [Set]/[Xprop] envelope. *)

(** {1 Cardinality helpers} *)

val card_contains : P.card -> int -> bool

val card_join : P.card -> P.card -> P.card
(** Least upper bound of two cardinality intervals. *)

val card_prod : P.card -> P.card -> P.card
(** Interval product.  Unlike [Milprop.card_mul] this keeps the lower
    bound (a cross product of non-empty sets is non-empty); saturates
    on overflow. *)

val sum_range :
  P.card -> float option -> float option -> float option * float option
(** Bounds on the sum of [card] values each within the given range
    (covers the empty sum 0 when the lower count bound is 0). *)

(** {1 Lattice operations} *)

val join : t -> t -> t
(** Least upper bound; structurally incompatible envelopes join to
    {!Unknown}. *)

val joins : t list -> t
(** [joins [] = Unknown]. *)

val of_value : Value.t -> t
(** The exact (most precise) envelope of a concrete value. *)

val value_ok : t -> Value.t -> (unit, string) result
(** Is the concrete value inside the envelope?  Numeric range checks
    allow a small relative tolerance for float rounding.  [Error]
    carries a human-readable account of the violation. *)

(** {1 Pretty-printing} *)

val pp_card : Format.formatter -> P.card -> unit

val pp : Format.formatter -> t -> unit
(** Renders a set as its cardinality followed by its element envelope,
    e.g. ["{|0..4| <a: int[-1..2]>}"]. *)

val to_string : t -> string
