type op =
  | Registered of { name : string; schema : string; owner : string }
  | Evolved of { name : string; schema : string; by : string }

type t = {
  versions : (string, (string * string) list) Hashtbl.t;
      (* name -> (schema, owner) versions, newest first *)
  mutable hook : (op -> unit) option;
}

let create () = { versions = Hashtbl.create 16; hook = None }
let copy t = { versions = Hashtbl.copy t.versions; hook = None }
let set_hook t h = t.hook <- h

let apply t op =
  (match op with
  | Registered { name; schema; owner } ->
    if Hashtbl.mem t.versions name then
      invalid_arg (Printf.sprintf "Dictionary.register: extent %S already exists" name);
    Hashtbl.add t.versions name [ (schema, owner) ]
  | Evolved { name; schema; by } -> (
    match Hashtbl.find_opt t.versions name with
    | None -> raise Not_found
    | Some versions -> Hashtbl.replace t.versions name ((schema, by) :: versions)));
  match t.hook with None -> () | Some f -> f op

let register t ~name ~schema ~owner = apply t (Registered { name; schema; owner })
let evolve t ~name ~schema ~by = apply t (Evolved { name; schema; by })

let schema_of t name =
  Option.map (fun versions -> fst (List.hd versions)) (Hashtbl.find_opt t.versions name)

let history t name = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.versions name))

let extents t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.versions [])

(* {1 Codec}: a sub-tag character, then three strings. *)

module Codec = Mirror_util.Codec

let add_op buf op =
  let tag, fields =
    match op with
    | Registered { name; schema; owner } -> ('r', [ name; schema; owner ])
    | Evolved { name; schema; by } -> ('e', [ name; schema; by ])
  in
  Buffer.add_char buf tag;
  List.iter (Codec.add_str buf) fields

let read_op c =
  let make =
    match Codec.read_char c with
    | 'r' -> fun name schema owner -> Registered { name; schema; owner }
    | 'e' -> fun name schema by -> Evolved { name; schema; by }
    | ch -> raise (Codec.Bad (Printf.sprintf "unknown dictionary change %C" ch))
  in
  let name = Codec.read_str c in
  let schema = Codec.read_str c in
  make name schema (Codec.read_str c)
