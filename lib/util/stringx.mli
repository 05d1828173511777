(** String helpers missing from the standard library that the lexer,
    tokenizer and report printers share. *)

val is_alpha : char -> bool
(** ASCII letter. *)

val is_digit : char -> bool
(** ASCII digit. *)

val is_alnum : char -> bool
(** ASCII letter or digit. *)

val split_on : (char -> bool) -> string -> string list
(** [split_on sep s] splits [s] on maximal runs of separator characters;
    never returns empty fragments. *)

val pad_right : int -> string -> string
(** Pad with spaces on the right to at least the given width. *)

val pad_left : int -> string -> string
(** Pad with spaces on the left to at least the given width. *)

val add_list : Buffer.t -> string -> ('a -> unit) -> 'a list -> unit
(** [add_list buf sep f xs] runs [f] over [xs], appending [sep] to
    [buf] between two items — the [Buffer] form of [String.concat]. *)
