module Catalog = Mirror_bat.Catalog
module Bat = Mirror_bat.Bat
module Mil = Mirror_bat.Mil
module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column
module Space = Mirror_ir.Space

type extent = {
  ty : Types.t;
  mutable shape : Extension.planshape option;
  mutable rows : Value.t list option;
}

type journal_record =
  | J_define of string * Types.t
  | J_replace of string * Value.t list
  | J_insert of string * Value.t list
  | J_delete of string * int list

type t = {
  cat : Catalog.t;
  exts : (string, extent) Hashtbl.t;
  spaces : (string, Space.t) Hashtbl.t;
  mutable next_store : int;
  mutable next_query : int;
  mutable journal : (journal_record -> unit) option;
}

let query_base_start = 1 lsl 40
let query_stride = 1 lsl 32

let create () =
  {
    cat = Catalog.create ();
    exts = Hashtbl.create 16;
    spaces = Hashtbl.create 8;
    next_store = 0;
    next_query = query_base_start;
    journal = None;
  }

let catalog t = t.cat
let set_journal t j = t.journal <- j
let jlog t r = match t.journal with None -> () | Some f -> f r

let fresh_store t n =
  let base = t.next_store in
  t.next_store <- t.next_store + max n 1;
  base

let fresh_query_base t =
  let base = t.next_query in
  t.next_query <- t.next_query + query_stride;
  base

let space_find t name = Hashtbl.find_opt t.spaces name

let space_create t name =
  let sp = Space.create name in
  Hashtbl.replace t.spaces name sp;
  sp

let eval_env t = { Extension.space = space_find t }

let analyze t shape =
  Mirror_bat.Milcheck.analyze
    (Mirror_bat.Milcheck.env ~foreign:Extension.foreign_decl t.cat)
    (Shape.plans shape)

let store_env t =
  { Extension.catalog = t.cat; fresh_store = fresh_store t; space_create = space_create t }

(* {1 Schema} *)

let rec check_type ty =
  match ty with
  | Types.Atomic _ -> Ok ()
  | Types.Tuple fields ->
    List.fold_left
      (fun acc (_, fty) -> Result.bind acc (fun () -> check_type fty))
      (Ok ()) fields
  | Types.Set elem -> check_type elem
  | Types.Xt (name, args) -> (
    match Extension.find name with
    | None -> Error (Printf.sprintf "unknown structure %S" name)
    | Some (module E : Extension.S) ->
      if List.length args <> E.arity then
        Error (Printf.sprintf "%s expects %d type parameter(s)" name E.arity)
      else
        Result.bind (E.check_type args) (fun () ->
            List.fold_left
              (fun acc a -> Result.bind acc (fun () -> check_type a))
              (Ok ()) args))

let define_raw t ~name ty =
  if Hashtbl.mem t.exts name then Error (Printf.sprintf "extent %S already defined" name)
  else if String.contains name '#' || String.contains name '/' then
    Error "extent names must not contain '#' or '/'"
  else if not (Types.well_labelled ty) then Error "tuple labels must be non-empty and distinct"
  else
    match ty with
    | Types.Set _ ->
      Result.map
        (fun () -> Hashtbl.add t.exts name { ty; shape = None; rows = None })
        (check_type ty)
    | _ -> Error (Printf.sprintf "extents must be sets, got %s" (Types.to_string ty))

(* {1 Materialisation} *)

let put_atomic_bat t ~path ~base_ty dom =
  let hb = Column.Builder.create Atom.TOid in
  let tb = Column.Builder.create base_ty in
  List.iter
    (fun (ctx, v) ->
      Column.Builder.add_oid hb ctx;
      Column.Builder.add tb (Value.as_atom v))
    dom;
  Catalog.put t.cat path (Bat.make (Column.Builder.finish hb) (Column.Builder.finish tb))

let rec materialize t ~path ~ty ~dom : Extension.planshape =
  let fail ctx v =
    invalid_arg
      (Printf.sprintf "Storage: value %s at %s (ctx @%d) does not match type %s"
         (Value.to_string v) path ctx (Types.to_string ty))
  in
  match ty with
  | Types.Atomic base_ty ->
    List.iter
      (fun (ctx, v) ->
        match v with
        | Value.Atom a when Atom.type_of a = base_ty -> ()
        | _ -> fail ctx v)
      dom;
    put_atomic_bat t ~path ~base_ty dom;
    Shape.Atomic (Mil.Get path)
  | Types.Tuple fields ->
    let sub (label, fty) =
      let fdom =
        List.map
          (fun (ctx, v) ->
            match v with
            | Value.Tup fs -> (
              match List.assoc_opt label fs with
              | Some fv -> (ctx, fv)
              | None -> fail ctx v)
            | _ -> fail ctx v)
          dom
      in
      (label, materialize t ~path:(path ^ "/" ^ label) ~ty:fty ~dom:fdom)
    in
    Shape.Tuple (List.map sub fields)
  | Types.Set elem_ty ->
    let total =
      List.fold_left
        (fun acc (ctx, v) ->
          match v with Value.VSet items -> acc + List.length items | _ -> fail ctx v)
        0 dom
    in
    let base = fresh_store t total in
    let next = ref base in
    let hb = Column.Builder.create Atom.TOid in
    let tb = Column.Builder.create Atom.TOid in
    let elem_dom = ref [] in
    List.iter
      (fun (ctx, v) ->
        List.iter
          (fun item ->
            Column.Builder.add_oid hb !next;
            Column.Builder.add_oid tb ctx;
            elem_dom := (!next, item) :: !elem_dom;
            incr next)
          (Value.as_set v))
      dom;
    Catalog.put t.cat (path ^ "#in")
      (Bat.make (Column.Builder.finish hb) (Column.Builder.finish tb));
    let elem =
      materialize t ~path:(path ^ "#el") ~ty:elem_ty ~dom:(List.rev !elem_dom)
    in
    Shape.Set { link = Mil.Get (path ^ "#in"); elem }
  | Types.Xt (name, ty_args) ->
    let (module E : Extension.S) = Extension.find_exn name in
    List.iter
      (fun (ctx, v) ->
        match v with Value.Xv { ext; _ } when ext = name -> () | _ -> fail ctx v)
      dom;
    E.materialize (store_env t)
      ~recurse:(fun ~path ~ty ~dom -> materialize t ~path ~ty ~dom)
      ~path ~ty_args ~dom

let rec bind_value t ~path ~ty v =
  match (ty, v) with
  | Types.Atomic _, _ -> v
  | Types.Tuple fields, Value.Tup fvs ->
    Value.Tup
      (List.map
         (fun (label, fv) ->
           match List.assoc_opt label fields with
           | Some fty -> (label, bind_value t ~path:(path ^ "/" ^ label) ~ty:fty fv)
           | None -> (label, fv))
         fvs)
  | Types.Set elem_ty, Value.VSet items ->
    Value.VSet (List.map (bind_value t ~path:(path ^ "#el") ~ty:elem_ty) items)
  | Types.Xt (name, ty_args), Value.Xv _ ->
    let (module E : Extension.S) = Extension.find_exn name in
    E.bind_value ~path
      ~recurse:(fun ~path ~ty v -> bind_value t ~path ~ty v)
      ~ty_args v
  | _, _ -> v

(* Remove the extent's BATs and statistics spaces, returning them so
   that a failed load can put them back. *)
let clear_prefix t name =
  let owned entry =
    entry = name
    || Mirror_util.Stringx.starts_with ~prefix:(name ^ "#") entry
    || Mirror_util.Stringx.starts_with ~prefix:(name ^ "/") entry
  in
  let bats =
    List.filter_map
      (fun entry -> if owned entry then Some (entry, Catalog.get t.cat entry) else None)
      (Catalog.names t.cat)
  in
  let spaces = List.filter (fun (sp, _) -> owned sp) (List.of_seq (Hashtbl.to_seq t.spaces)) in
  List.iter (fun (entry, _) -> Catalog.remove t.cat entry) bats;
  List.iter (fun (sp, _) -> Hashtbl.remove t.spaces sp) spaces;
  (bats, spaces)

let load_unlogged t ~name rows =
  match Hashtbl.find_opt t.exts name with
  | None -> Error (Printf.sprintf "unknown extent %S" name)
  | Some extent -> (
    let elem_ty = match extent.ty with Types.Set e -> e | _ -> assert false in
    match List.find_opt (fun r -> not (Value.type_ok elem_ty r)) rows with
    | Some bad ->
      Error
        (Printf.sprintf "row %s does not match element type %s" (Value.to_string bad)
           (Types.to_string elem_ty))
    | None -> (
      let old_bats, old_spaces = clear_prefix t name in
      let base = fresh_store t (List.length rows) in
      let oids = List.mapi (fun i _ -> base + i) rows in
      let hb = Column.Builder.create Atom.TOid in
      let tb = Column.Builder.create Atom.TOid in
      List.iter
        (fun oid ->
          Column.Builder.add_oid hb oid;
          Column.Builder.add_oid tb 0)
        oids;
      Catalog.put t.cat (name ^ "#in")
        (Bat.make (Column.Builder.finish hb) (Column.Builder.finish tb));
      match
        materialize t ~path:(name ^ "#el") ~ty:elem_ty ~dom:(List.combine oids rows)
      with
      | shape ->
        extent.shape <- Some (Shape.Set { link = Mil.Get (name ^ "#in"); elem = shape });
        extent.rows <-
          Some (List.map (bind_value t ~path:(name ^ "#el") ~ty:elem_ty) rows);
        Ok oids
      | exception Invalid_argument msg ->
        (* a value the type check let through failed to materialize:
           drop what was built and put the old contents back, so the
           failed load leaves the extent as it was *)
        ignore (clear_prefix t name);
        List.iter (fun (entry, b) -> Catalog.put t.cat entry b) old_bats;
        List.iter (fun (sp, s) -> Hashtbl.replace t.spaces sp s) old_spaces;
        Error msg))

(* The journal records an operation only after it applied cleanly: a
   crash in between means the caller never saw it succeed, so losing
   it is correct.  Internal reloads go through [load_unlogged] so a
   single DML statement journals exactly one record. *)
let load t ~name rows =
  Result.map
    (fun oids ->
      jlog t (J_replace (name, rows));
      oids)
    (load_unlogged t ~name rows)

(* A freshly-defined extent is immediately queryable as the empty set. *)
let define t ~name ty =
  match define_raw t ~name ty with
  | Error _ as e -> e
  | Ok () ->
    Result.map
      (fun (_ : int list) -> jlog t (J_define (name, ty)))
      (load_unlogged t ~name [])

(* DML is copying in memory: BATs are append-only in spirit, but
   rebuilding the extent wholesale keeps every invariant (statistics
   spaces, indexes) trivially correct, and element oids are
   re-assigned.  The journal records only the statement's own rows or
   positions, which recovery redoes through these same functions. *)
let loaded_rows t name =
  match Hashtbl.find_opt t.exts name with
  | None -> Error (Printf.sprintf "unknown extent %S" name)
  | Some { rows = None; _ } -> Error (Printf.sprintf "extent %S has no loaded contents" name)
  | Some { rows = Some rows; _ } -> Ok rows

let insert t ~name new_rows =
  Result.bind (loaded_rows t name) (fun old_rows ->
      Result.map
        (fun oids ->
          jlog t (J_insert (name, new_rows));
          oids)
        (load_unlogged t ~name (old_rows @ new_rows)))

(* The survivors of deleting [positions] from [rows], or an error when
   the positions are not strictly ascending or fall outside the rows. *)
let drop_positions rows positions =
  let rec go i rows positions acc =
    match (positions, rows) with
    | [], _ -> Ok (List.rev_append acc rows)
    | p :: _, _ when p < i -> Error "delete positions are not strictly ascending"
    | _, [] -> Error "delete position out of range"
    | p :: ps, _ :: rest when p = i -> go (i + 1) rest ps acc
    | _, r :: rest -> go (i + 1) rest positions (r :: acc)
  in
  match positions with
  | p :: _ when p < 0 -> Error "delete position out of range"
  | _ -> go 0 rows positions []

let delete_positions t ~name positions =
  Result.bind (loaded_rows t name) (fun old_rows ->
      Result.bind (drop_positions old_rows positions) (fun survivors ->
          Result.map
            (fun (_ : int list) -> jlog t (J_delete (name, positions)))
            (load_unlogged t ~name survivors)))

let delete_where t ~name pred =
  Result.bind (loaded_rows t name) (fun old_rows ->
      let positions =
        List.filter_map Fun.id (List.mapi (fun i r -> if pred r then Some i else None) old_rows)
      in
      Result.map (fun () -> List.length positions) (delete_positions t ~name positions))

(* {1 Copy-on-write snapshots (the serving tier's version store)}

   A snapshot freezes the logical state a reader needs: the catalog
   bindings (BATs are immutable, so only the name table is copied),
   the extent records (copied because their [shape]/[rows] fields are
   mutated in place by DML), the statistics spaces (shared: a space
   object is built fresh at materialisation time and only read
   afterwards; DML replaces the binding, never the object) and the oid
   allocator positions.  Building one is O(#extents + #names), never
   O(rows). *)

type snapshot = {
  s_cat : Catalog.snapshot;
  s_exts : (string * extent) list;
  s_spaces : (string * Space.t) list;
  s_next_store : int;
  s_next_query : int;
}

let snapshot t =
  {
    s_cat = Catalog.snapshot t.cat;
    s_exts =
      Hashtbl.fold
        (fun name e acc -> (name, { ty = e.ty; shape = e.shape; rows = e.rows }) :: acc)
        t.exts [];
    s_spaces = Hashtbl.fold (fun name sp acc -> (name, sp) :: acc) t.spaces [];
    s_next_store = t.next_store;
    s_next_query = t.next_query;
  }

(* The restored view is a fully functional [t]: reads (including
   query-base allocation, which only mutates the view's private
   counter) work as usual.  It never journals — a version is a read
   replica, not a write path. *)
let of_snapshot s =
  let exts = Hashtbl.create (max 16 (List.length s.s_exts)) in
  List.iter
    (fun (name, e) ->
      Hashtbl.replace exts name { ty = e.ty; shape = e.shape; rows = e.rows })
    s.s_exts;
  let spaces = Hashtbl.create (max 8 (List.length s.s_spaces)) in
  List.iter (fun (name, sp) -> Hashtbl.replace spaces name sp) s.s_spaces;
  {
    cat = Catalog.of_snapshot s.s_cat;
    exts;
    spaces;
    next_store = s.s_next_store;
    next_query = s.s_next_query;
    journal = None;
  }

let extents t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.exts [])
let extent_type t name = Option.map (fun e -> e.ty) (Hashtbl.find_opt t.exts name)

let extent_shape t name =
  Option.bind (Hashtbl.find_opt t.exts name) (fun e -> e.shape)

let extent_rows t name = Option.bind (Hashtbl.find_opt t.exts name) (fun e -> e.rows)

let extent_count t name =
  match extent_rows t name with Some rows -> List.length rows | None -> 0

let typecheck_env t = { Typecheck.extent = extent_type t }
