type op =
  | Registered of { name : string; schema : string; owner : string }
  | Evolved of { name : string; schema : string; by : string }

type t = {
  versions : (string, (string * string) list) Hashtbl.t;
      (* name -> (schema, owner) versions, newest first *)
  mutable sync : (op -> unit) option;
}

let create () = { versions = Hashtbl.create 16; sync = None }
let copy t = { versions = Hashtbl.copy t.versions; sync = None }
let set_sync t s = t.sync <- s
let emit t op = match t.sync with None -> () | Some f -> f op

let register t ~name ~schema ~owner =
  if Hashtbl.mem t.versions name then
    invalid_arg (Printf.sprintf "Dictionary.register: extent %S already exists" name);
  Hashtbl.add t.versions name [ (schema, owner) ];
  emit t (Registered { name; schema; owner })

let evolve t ~name ~schema ~by =
  match Hashtbl.find_opt t.versions name with
  | None -> raise Not_found
  | Some versions ->
    Hashtbl.replace t.versions name ((schema, by) :: versions);
    emit t (Evolved { name; schema; by })

let apply t op =
  let saved = t.sync in
  t.sync <- None;
  Fun.protect
    ~finally:(fun () -> t.sync <- saved)
    (fun () ->
      match op with
      | Registered { name; schema; owner } -> register t ~name ~schema ~owner
      | Evolved { name; schema; by } -> evolve t ~name ~schema ~by)

let schema_of t name =
  Option.map (fun versions -> fst (List.hd versions)) (Hashtbl.find_opt t.versions name)

let history t name = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.versions name))

let extents t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.versions [])
