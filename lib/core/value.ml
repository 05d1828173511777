module Atom = Mirror_bat.Atom

type t =
  | Atom of Atom.t
  | Tup of (string * t) list
  | VSet of t list
  | Xv of { ext : string; meta : string list; items : t list }

let rank = function Atom _ -> 0 | Tup _ -> 1 | VSet _ -> 2 | Xv _ -> 3

let rec compare_lists : 'a. ('a -> 'a -> int) -> 'a list -> 'a list -> int =
  fun cmp xs ys ->
   match (xs, ys) with
   | [], [] -> 0
   | [], _ :: _ -> -1
   | _ :: _, [] -> 1
   | x :: xs, y :: ys ->
     let c = cmp x y in
     if c <> 0 then c else compare_lists cmp xs ys

let rec compare a b =
  match (a, b) with
  | Atom x, Atom y -> Atom.compare x y
  | Tup xs, Tup ys ->
    compare_lists
      (fun (lx, vx) (ly, vy) ->
        let c = String.compare lx ly in
        if c <> 0 then c else compare vx vy)
      xs ys
  | VSet xs, VSet ys ->
    (* multiset semantics: compare sorted *)
    compare_lists compare (List.sort compare xs) (List.sort compare ys)
  | Xv x, Xv y ->
    let c = String.compare x.ext y.ext in
    if c <> 0 then c
    else
      let c = compare_lists String.compare x.meta y.meta in
      if c <> 0 then c
      else if x.ext = "CONTREP" then
        (* bag semantics for content representations *)
        compare_lists compare (List.sort compare x.items) (List.sort compare y.items)
      else compare_lists compare x.items y.items
  | _, _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let rec to_buffer buf = function
  | Atom a -> Atom.to_buffer buf a
  | Tup fields ->
    Buffer.add_char buf '<';
    Mirror_util.Stringx.add_list buf ", "
      (fun (label, v) ->
        Buffer.add_string buf label;
        Buffer.add_string buf ": ";
        to_buffer buf v)
      fields;
    Buffer.add_char buf '>'
  | VSet items ->
    Buffer.add_char buf '{';
    Mirror_util.Stringx.add_list buf ", " (to_buffer buf) items;
    Buffer.add_char buf '}'
  | Xv { ext; meta; items } ->
    Buffer.add_string buf ext;
    if meta <> [] then begin
      Buffer.add_char buf '(';
      Buffer.add_string buf (String.concat "," meta);
      Buffer.add_char buf ')'
    end;
    Buffer.add_char buf '[';
    Mirror_util.Stringx.add_list buf ", " (to_buffer buf) items;
    Buffer.add_char buf ']'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let int i = Atom (Atom.Int i)
let flt f = Atom (Atom.Flt f)
let str s = Atom (Atom.Str s)
let bool b = Atom (Atom.Bool b)

let contrep ?space bag =
  (* merge duplicate terms *)
  let tbl = Hashtbl.create (List.length bag) in
  let order = ref [] in
  List.iter
    (fun (term, tf) ->
      match Hashtbl.find_opt tbl term with
      | Some prev -> Hashtbl.replace tbl term (prev +. tf)
      | None ->
        Hashtbl.add tbl term tf;
        order := term :: !order)
    bag;
  let items =
    List.rev_map
      (fun term ->
        Tup [ ("term", str term); ("tf", flt (Hashtbl.find tbl term)) ])
      !order
  in
  Xv { ext = "CONTREP"; meta = (match space with None -> [] | Some s -> [ s ]); items }

let contrep_bag = function
  | Xv { ext = "CONTREP"; items; _ } ->
    List.map
      (fun item ->
        match item with
        | Tup [ ("term", Atom (Atom.Str term)); ("tf", Atom tf) ] -> (term, Atom.as_float tf)
        | _ -> invalid_arg "Value.contrep_bag: malformed CONTREP item")
      items
  | _ -> invalid_arg "Value.contrep_bag: not a CONTREP value"

let contrep_space = function
  | Xv { ext = "CONTREP"; meta = space :: _; _ } -> Some space
  | Xv { ext = "CONTREP"; meta = []; _ } -> None
  | _ -> invalid_arg "Value.contrep_space: not a CONTREP value"

let vlist items = Xv { ext = "LIST"; meta = []; items }

let as_atom = function Atom a -> a | v -> invalid_arg ("Value.as_atom: " ^ to_string v)
let as_set = function VSet xs -> xs | v -> invalid_arg ("Value.as_set: " ^ to_string v)
let as_tuple = function Tup fs -> fs | v -> invalid_arg ("Value.as_tuple: " ^ to_string v)

let field_exn v label =
  match v with
  | Tup fields -> (
    match List.assoc_opt label fields with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Value.field_exn: no field %S" label))
  | _ -> invalid_arg "Value.field_exn: not a tuple"

let rec type_ok ty v =
  match (ty, v) with
  | Types.Atomic at, Atom a -> Atom.type_of a = at
  | Types.Tuple fts, Tup fvs ->
    List.length fts = List.length fvs
    && List.for_all2
         (fun (lt, t) (lv, x) -> String.equal lt lv && type_ok t x)
         fts fvs
  | Types.Set elem, VSet items -> List.for_all (type_ok elem) items
  | Types.Xt (name, _), Xv { ext; _ } -> String.equal name ext
  | (Types.Atomic _ | Types.Tuple _ | Types.Set _ | Types.Xt _), _ -> false
