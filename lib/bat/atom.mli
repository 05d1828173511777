(** Atomic values of the binary-relational kernel.

    The physical data model knows five base types, mirroring the Monet
    atoms the Mirror DBMS inherited at its logical level: integers,
    double-precision floats, strings, booleans and object identifiers
    (oids).  Every cell of every BAT column holds exactly one atom; the
    kernel has no NULL — operators that could produce missing values
    (outer joins, empty-group aggregates) take an explicit default
    atom instead. *)

type t =
  | Int of int
  | Flt of float
  | Str of string
  | Bool of bool
  | Oid of int

type ty = TInt | TFlt | TStr | TBool | TOid

val type_of : t -> ty
(** The base type of an atom. *)

val ty_name : ty -> string
(** Lower-case type name ("int", "flt", "str", "bool", "oid"). *)

val equal : t -> t -> bool
(** Structural equality.  Atoms of different base types are never
    equal. *)

val compare : t -> t -> int
(** Total order: first by base type, then by value.  Float comparison
    uses [Float.compare], so [nan] is ordered deterministically. *)

val hash : t -> int
(** Hash compatible with {!equal}. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n], written from a two-digit table. *)

val add_float : Buffer.t -> float -> unit
(** Append [Printf.sprintf "%.12g" x], byte for byte.  Values with
    1e-4 <= |x| < 1e12 (the fixed notation) are written from their
    12 rounded digits; the rest — [nan], infinities, zeros, the
    exponent form — and the rare value whose scaled digits land on a
    rounding tie or that sits within an ulp of a power of ten go
    through C's [printf]. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the textual form: ints in decimal, floats as ["%.12g"],
    strings as [%S] quotes them ([String.escaped] between double
    quotes), [true]/[false], and oids as [@n].  Never a line break. *)

val to_string : t -> string
(** The text {!to_buffer} appends: one line, whatever the atom. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string} as one token. *)

val parse : ty -> string -> (t, string) result
(** Parse the textual form produced by {!to_string} back into an atom of
    the requested type (used by the catalog dump/load round-trip). *)

val as_int : t -> int
(** Value of an [Int] atom. @raise Invalid_argument otherwise. *)

val as_float : t -> float
(** Value of a [Flt] atom; [Int] atoms are widened.
    @raise Invalid_argument otherwise. *)

val as_string : t -> string
(** Value of a [Str] atom. @raise Invalid_argument otherwise. *)

val as_bool : t -> bool
(** Value of a [Bool] atom. @raise Invalid_argument otherwise. *)

val as_oid : t -> int
(** Value of an [Oid] atom. @raise Invalid_argument otherwise. *)
