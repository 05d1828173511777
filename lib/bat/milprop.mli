(** Inferred per-BAT properties — the analyzer's abstract domain.

    MonetDB kept per-BAT properties (key-ness, ordering, density) both
    for safety and for algorithm selection; this module is the Mirror
    kernel's equivalent, and the envelope part of {!Milcheck}'s
    per-node fact — its interval is the only row interval any analyzer
    keeps.  A property record is an {e envelope}: every flag set and
    every bound stated must hold of the BAT the subplan evaluates to.
    [false] / [None] always mean "unknown", never "known false", so
    {!unknown} is the lattice top and inference only ever errs towards
    fewer guarantees. *)

type card = { lo : int; hi : int option }
(** Cardinality bounds: at least [lo] rows, at most [hi] (no upper
    bound when [None]). *)

type t = {
  hty : Atom.ty option;  (** Head atom type, when statically known. *)
  tty : Atom.ty option;  (** Tail atom type. *)
  head_key : bool;  (** All head values distinct. *)
  tail_key : bool;  (** All tail values distinct. *)
  dense_head : bool;  (** Heads are consecutive ascending oids (Monet "void"). *)
  dense_tail : bool;  (** Tails are consecutive ascending oids. *)
  sorted_head : bool;  (** Heads non-decreasing. *)
  sorted_tail : bool;  (** Tails non-decreasing. *)
  card : card;
}

val unknown : t
(** No guarantees at all (the lattice top). *)

val normalize : t -> t
(** Close a record under the domain's implications: density implies
    key-ness and sortedness of that column, and a provably empty BAT
    satisfies every per-row flag vacuously. *)

val any_card : card
(** [{lo = 0; hi = None}]. *)

val exactly : int -> card
(** Both bounds pinned to [n]. *)

val card_add : card -> card -> card
val card_mul : card -> card -> card
(** Bound arithmetic; multiplication saturates to unbounded on
    overflow and keeps [lo = 0]. *)

val card_upto : card -> card
(** Drop the lower bound (selections, joins). *)

val card_min_hi : card -> int -> card
(** Clamp both bounds to at most [n] ([slice], [topn]). *)

val card_meet : card -> card -> card
(** Intersection of two sound intervals (itself sound). *)

val card_intersects : card -> card -> bool
(** Do two envelopes admit a common cardinality? *)

val sadd : int -> int -> int
val smul : int -> int -> int
(** Saturating non-negative arithmetic for row estimates and byte
    counts: results clamp to [max_int] instead of wrapping. *)

val is_empty : t -> bool
(** Statically known to produce no rows ([hi = Some 0]). *)

val swap : t -> t
(** Properties of [reverse]: head and tail columns exchanged. *)

val of_bat : Bat.t -> t
(** Exact properties of a materialised BAT (O(n) column scans) — the
    ground truth the checked executor compares inferred envelopes
    against. *)

val envelope_ok : inferred:t -> actual:t -> (unit, string) result
(** Is [actual] (typically {!of_bat} of a result) inside the
    [inferred] envelope?  [Error] carries a human-readable list of the
    violated guarantees. *)

val compatible : t -> t -> bool
(** Do two inferred envelopes agree on everything both know — equal
    known types and overlapping cardinality bounds?  The differential
    checker's notion of "same type/shape/cardinality envelope". *)

val pp : Format.formatter -> t -> unit
(** e.g. [[oid->int |0..4| dense-head]]. *)

val to_string : t -> string
