(** The flattened-representation shape, after [BWK98].

    A Moa structure flattens to a bundle of BATs mirroring the type
    tree: atomic nodes carry one BAT (context oid -> value), tuples
    share their context over their fields, sets add a link BAT (element
    oid -> parent oid), and extension structures carry an
    extension-defined list of BATs plus optional sub-bundles.

    The shape is polymorphic in the BAT representation: [Mil.t Shape.t]
    is a compiled plan bundle, [Bat.t Shape.t] a materialised one. *)

type 'b t =
  | Atomic of 'b  (** ctx -> atom *)
  | Tuple of (string * 'b t) list
  | Set of { link : 'b; elem : 'b t }  (** link: elem -> parent ctx *)
  | Xstruct of {
      ext : string;  (** Owning extension. *)
      meta : string list;  (** Extension payload (e.g. stats space). *)
      bats : 'b list;  (** Extension-defined BATs, positional. *)
      subs : 'b t list;  (** Extension-defined sub-bundles. *)
    }

val map : ('b -> 'c) -> 'b t -> 'c t
(** Rewrite every BAT slot. *)

val iter : ('b -> unit) -> 'b t -> unit
(** Visit every BAT slot. *)

val plans : 'b t -> 'b list
(** The BAT slots in {!iter} order. *)

val count_bats : 'b t -> int
(** Number of BAT slots in the bundle. *)
