(** Typed column vectors.

    A BAT is a pair of equal-length columns.  Columns are monomorphic —
    each holds atoms of exactly one base type — and are immutable once
    built (kernel operators always allocate fresh columns).  The
    {!Builder} sub-module provides the growable buffer used while an
    operator is producing its result. *)

type t =
  | I of int array
  | F of float array
  | S of string array
  | B of bool array
  | O of int array  (** object identifiers *)

val ty : t -> Atom.ty
(** Base type of the column. *)

val length : t -> int
(** Number of cells. *)

val get : t -> int -> Atom.t
(** [get c i] boxes cell [i] as an atom. *)

val set : t -> int -> Atom.t -> unit
(** [set c i a] writes cell [i]; the atom's type must match the column
    type.  Reserved for freshly-allocated columns inside kernel
    operators. *)

val make : Atom.ty -> int -> t
(** Column of the given length filled with the type's zero value. *)

val const : Atom.t -> int -> t
(** Column of the given length filled with one atom. *)

val init : Atom.ty -> int -> (int -> Atom.t) -> t
(** Initialise cell-by-cell. *)

val of_atoms : Atom.ty -> Atom.t list -> t
(** Build from a list; every atom must have the stated type. *)

val to_atoms : t -> Atom.t list
(** Box all cells. *)

val iota : int -> int -> int array
(** [iota base n] is the int array [base, base+1, …, base+n-1]. *)

val dense : int -> int -> t
(** [dense base n] is the oid column [base, base+1, …, base+n-1]. *)

val gather : t -> int array -> t
(** [gather c idx] is the column [c.(idx.(0)); c.(idx.(1)); …] — the
    positional take primitive.  Filled range by range through
    {!Parkernel.fill}. *)

val gather_pair : t -> int array -> t -> int array -> t * t
(** [gather_pair a ia b ib] is [(gather a ia, gather b ib)] for index
    arrays of equal length, filled in one pass over the ranges of
    {!Parkernel.fill} — the row take behind selections and joins. *)

val append : t -> t -> t
(** Concatenate two columns of the same type. *)

val equal : t -> t -> bool
(** Same type, length and cell values. *)

val bytes : t -> int
(** Nominal payload size in bytes: 8 per cell (the slot), plus the
    string payload for [S] columns.  The accounting model shared with
    {!Boundcheck}'s static envelopes — deliberately representation-
    independent (a bool cell counts 8 like everything else) so that
    static and measured sides agree. *)

val oid_exn : t -> int array
(** Underlying array of an oid column. @raise Invalid_argument otherwise. *)

val float_exn : t -> float array
(** Underlying array of a float column. @raise Invalid_argument otherwise. *)

module Builder : sig
  type col := t

  type t
  (** Growable, type-fixed buffer of atoms. *)

  val create : Atom.ty -> t
  (** Empty builder for the given type. *)

  val add : t -> Atom.t -> unit
  (** Append one atom; its type must match. *)

  val add_int : t -> int -> unit
  (** Unboxed append to an int builder. *)

  val add_float : t -> float -> unit
  (** Unboxed append to a float builder. *)

  val add_oid : t -> int -> unit
  (** Unboxed append to an oid builder. *)

  val length : t -> int
  (** Cells added so far. *)

  val finish : t -> col
  (** Freeze into a column. *)
end
