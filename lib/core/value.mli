(** Logical values of the Moa data model.

    Values exist for three purposes: literals inside queries, the
    object-at-a-time reference semantics ({!Naive}), and the reified
    results handed back to callers.  The flattened execution path never
    builds them — it works on BATs. *)

type t =
  | Atom of Mirror_bat.Atom.t
  | Tup of (string * t) list
  | VSet of t list
  | Xv of { ext : string; meta : string list; items : t list }
      (** Extension value; the payload encoding is owned by the
          extension ([LIST]: elements in order; [CONTREP]: one
          [Tup [term; tf]] per distinct term, [meta = [space]] once
          bound to a collection). *)

val compare : t -> t -> int
(** Total order.  Sets are compared as sorted multisets, so two sets
    with the same elements in different order are equal. *)

val equal : t -> t -> bool
(** [compare a b = 0]. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the textual form: atoms as {!Mirror_bat.Atom.to_buffer},
    tuples as [<l: v, …>], sets as [{v, …}], extension values as
    [EXT(meta,…)\[v, …\]] (no parentheses without meta).  Items are
    separated by [", "] and no line is ever broken, whatever the
    size. *)

val to_string : t -> string
(** The text {!to_buffer} appends: one line at any size. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string} as one token. *)

(** {1 Constructors and accessors} *)

val int : int -> t
val flt : float -> t
val str : string -> t
val bool : bool -> t

val contrep : ?space:string -> (string * float) list -> t
(** A CONTREP value from a term bag; duplicate terms are tf-summed. *)

val contrep_bag : t -> (string * float) list
(** The term bag of a CONTREP value.
    @raise Invalid_argument on other values. *)

val contrep_space : t -> string option
(** The bound statistics space, when any. *)

val vlist : t list -> t
(** A LIST value. *)

val as_atom : t -> Mirror_bat.Atom.t
(** @raise Invalid_argument when not an atom. *)

val as_set : t -> t list
(** @raise Invalid_argument when not a set. *)

val as_tuple : t -> (string * t) list
(** @raise Invalid_argument when not a tuple. *)

val field_exn : t -> string -> t
(** Tuple field. @raise Invalid_argument when absent. *)

val type_ok : Types.t -> t -> bool
(** Does the value inhabit the type?  Extension values are checked
    shallowly (name match only) — deep checks belong to the
    extension. *)
