type op =
  | Registered of { name : string; schema : string; owner : string }
  | Evolved of { name : string; schema : string; by : string }

type t = {
  versions : (string, (string * string) list) Hashtbl.t;
      (* name -> (schema, owner) versions, newest first *)
  mutable sync : (op -> unit) option;
  mutable journal : (op -> unit) option;
}

let create () = { versions = Hashtbl.create 16; sync = None; journal = None }
let copy t = { versions = Hashtbl.copy t.versions; sync = None; journal = None }
let set_sync t s = t.sync <- s
let set_journal t j = t.journal <- j
let fire hook op = match hook with None -> () | Some f -> f op

(* Apply [op] and tell the journal, but not the capture hook: a
   captured change arriving here must not be re-emitted. *)
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
  fire t.journal op

let register t ~name ~schema ~owner =
  let op = Registered { name; schema; owner } in
  apply t op;
  fire t.sync op

let evolve t ~name ~schema ~by =
  let op = Evolved { name; schema; by } in
  apply t op;
  fire t.sync op

let schema_of t name =
  Option.map (fun versions -> fst (List.hd versions)) (Hashtbl.find_opt t.versions name)

let history t name = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.versions name))

let extents t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.versions [])
