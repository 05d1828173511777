type t =
  | Int of int
  | Flt of float
  | Str of string
  | Bool of bool
  | Oid of int

type ty = TInt | TFlt | TStr | TBool | TOid

let type_of = function
  | Int _ -> TInt
  | Flt _ -> TFlt
  | Str _ -> TStr
  | Bool _ -> TBool
  | Oid _ -> TOid

let ty_name = function
  | TInt -> "int"
  | TFlt -> "flt"
  | TStr -> "str"
  | TBool -> "bool"
  | TOid -> "oid"

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Flt x, Flt y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Oid x, Oid y -> x = y
  | (Int _ | Flt _ | Str _ | Bool _ | Oid _), _ -> false

let rank = function
  | Int _ -> 0
  | Flt _ -> 1
  | Str _ -> 2
  | Bool _ -> 3
  | Oid _ -> 4

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Flt x, Flt y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Oid x, Oid y -> Stdlib.compare x y
  | _, _ -> Stdlib.compare (rank a) (rank b)

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Flt x -> Hashtbl.hash (1, x)
  | Str x -> Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)
  | Oid x -> Hashtbl.hash (4, x)

(* What [Printf]'s ["%.12g"] calls, without the format interpreter:
   [nan], [inf], [-0] and subnormals print as they always have. *)
external format_float : string -> float -> string = "caml_format_float"

let to_buffer buf = function
  | Int x -> Buffer.add_string buf (Int.to_string x)
  | Flt x -> Buffer.add_string buf (format_float "%.12g" x)
  | Str x ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped x);
    Buffer.add_char buf '"'
  | Bool x -> Buffer.add_string buf (if x then "true" else "false")
  | Oid x ->
    Buffer.add_char buf '@';
    Buffer.add_string buf (Int.to_string x)

let to_string a =
  let buf = Buffer.create 16 in
  to_buffer buf a;
  Buffer.contents buf

let pp ppf a = Format.pp_print_string ppf (to_string a)

let parse ty s =
  let fail () = Error (Printf.sprintf "cannot parse %S as %s" s (ty_name ty)) in
  match ty with
  | TInt -> ( match int_of_string_opt s with Some v -> Ok (Int v) | None -> fail ())
  | TFlt -> ( match float_of_string_opt s with Some v -> Ok (Flt v) | None -> fail ())
  | TBool -> ( match bool_of_string_opt s with Some v -> Ok (Bool v) | None -> fail ())
  | TOid ->
    if String.length s > 1 && s.[0] = '@' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some v -> Ok (Oid v)
      | None -> fail ()
    else fail ()
  | TStr -> ( try Ok (Str (Scanf.sscanf s "%S" (fun x -> x))) with Scanf.Scan_failure _ | End_of_file -> fail ())

let wrong got want =
  invalid_arg (Printf.sprintf "Atom: expected %s, got %s" want (ty_name (type_of got)))

let as_int = function Int x -> x | a -> wrong a "int"

let as_float = function
  | Flt x -> x
  | Int x -> Float.of_int x
  | a -> wrong a "flt"

let as_string = function Str x -> x | a -> wrong a "str"
let as_bool = function Bool x -> x | a -> wrong a "bool"
let as_oid = function Oid x -> x | a -> wrong a "oid"
