(** String helpers missing from the standard library that the lexer,
    tokenizer and report printers share. *)

val is_alpha : char -> bool
(** ASCII letter. *)

val is_digit : char -> bool
(** ASCII digit. *)

val is_alnum : char -> bool
(** ASCII letter or digit. *)

val lowercase_ascii : string -> string
(** Alias of [String.lowercase_ascii], re-exported for locality. *)

val split_on : (char -> bool) -> string -> string list
(** [split_on sep s] splits [s] on maximal runs of separator characters;
    never returns empty fragments. *)

val starts_with : prefix:string -> string -> bool
(** Prefix test. *)

val ends_with : suffix:string -> string -> bool
(** Suffix test. *)

val pad_right : int -> string -> string
(** Pad with spaces on the right to at least the given width. *)

val pad_left : int -> string -> string
(** Pad with spaces on the left to at least the given width. *)

val concat_map : string -> ('a -> string) -> 'a list -> string
(** [concat_map sep f xs] is [String.concat sep (List.map f xs)]. *)

val add_list : Buffer.t -> string -> ('a -> unit) -> 'a list -> unit
(** [add_list buf sep f xs] runs [f] over [xs], appending [sep] to
    [buf] between two items — the [Buffer] form of [concat_map]. *)
