module Mil = Mirror_bat.Mil
module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column
module Prop = Mirror_bat.Milprop

let fail fmt = Printf.ksprintf (fun s -> raise (Flatten.Unsupported s)) fmt

let key_of_item field item =
  if field = "" then item else Value.field_exn item field

module E = struct
  let name = "LIST"
  let arity = 1
  let check_type _ = Ok ()
  let ops = [ "tolist"; "tolist_desc"; "take"; "toset" ]

  let op_type ~op ~args =
    match (op, args) with
    | ("tolist" | "tolist_desc"), [ Types.Set elem; Types.Atomic Atom.TStr ] ->
      Ok (Types.Xt (name, [ elem ]))
    | ("tolist" | "tolist_desc"), _ ->
      Error (op ^ " expects (SET<T>, field-name string)")
    | "take", [ Types.Xt ("LIST", [ elem ]); Types.Atomic Atom.TInt ] ->
      Ok (Types.Xt (name, [ elem ]))
    | "take", _ -> Error "take expects (LIST<T>, int)"
    | "toset", [ Types.Xt ("LIST", [ elem ]) ] -> Ok (Types.Set elem)
    | "toset", _ -> Error "toset expects a LIST<T>"
    | _, _ -> Error ("LIST: unknown operator " ^ op)

  let op_eval _env ~op ~args =
    match (op, args) with
    | ("tolist" | "tolist_desc"), [ set; Value.Atom (Atom.Str field) ] ->
      let items = Value.as_set set in
      let cmp a b = Value.compare (key_of_item field a) (key_of_item field b) in
      let cmp = if op = "tolist_desc" then fun a b -> cmp b a else cmp in
      Value.vlist (List.stable_sort cmp items)
    | "take", [ Value.Xv { ext = "LIST"; items; _ }; Value.Atom (Atom.Int n) ] ->
      Value.vlist (List.filteri (fun i _ -> i < n) items)
    | "toset", [ Value.Xv { ext = "LIST"; items; _ } ] -> Value.VSet items
    | _, _ -> failwith ("LIST: bad operands for " ^ op)

  let op_flatten _env ~op ~arg_tys:_ ~raw ~args =
    match (op, raw, args) with
    | ("tolist" | "tolist_desc"), [ _; field_raw ], [ self; _field_shape ] -> (
      let field =
        match field_raw with
        | Expr.Lit (Value.Atom (Atom.Str f), _) -> f
        | _ -> fail "%s: field name must be a string literal" op
      in
      match self with
      | Shape.Set { link; elem } ->
        let key =
          if field = "" then
            match elem with
            | Shape.Atomic b -> b
            | _ -> fail "%s: empty field requires atomic elements" op
          else
            match elem with
            | Shape.Tuple fields -> (
              match List.assoc_opt field fields with
              | Some (Shape.Atomic b) -> b
              | Some _ -> fail "%s: field %S is not atomic" op field
              | None -> fail "%s: no field %S" op field)
            | _ -> fail "%s: elements are not tuples" op
        in
        let pos = Mil.GroupRank { link; key; desc = op = "tolist_desc"; limit = None } in
        Shape.Xstruct { ext = name; meta = []; bats = [ link; pos ]; subs = [ elem ] }
      | _ -> fail "%s: expected a flattened set" op)
    | "take", [ _; n_raw ], [ self; _n_shape ] -> (
      let n =
        match n_raw with
        | Expr.Lit (Value.Atom (Atom.Int n), _) -> n
        | _ -> fail "take: count must be an integer literal"
      in
      match self with
      | Shape.Xstruct { ext = "LIST"; bats = [ link; pos ]; subs = [ elem ]; _ } ->
        let keep = Mil.SelectCmp (pos, Bat.Lt, Atom.Int n) in
        Shape.Xstruct
          {
            ext = name;
            meta = [];
            bats = [ Mil.Semijoin (link, keep); keep ];
            subs = [ Flatten.filter_shape elem keep ];
          }
      | _ -> fail "take: expected a flattened list")
    | "toset", _, [ self ] -> (
      match self with
      | Shape.Xstruct { ext = "LIST"; bats = [ link; _pos ]; subs = [ elem ]; _ } ->
        Shape.Set { link; elem }
      | _ -> fail "toset: expected a flattened list")
    | _, _, _ -> fail "LIST: bad operands for %s" op

  let materialize env ~recurse ~path ~ty_args ~dom =
    let elem_ty = match ty_args with [ t ] -> t | _ -> assert false in
    let total =
      List.fold_left
        (fun acc (_, v) ->
          match v with
          | Value.Xv { ext = "LIST"; items; _ } -> acc + List.length items
          | _ -> invalid_arg "LIST.materialize: not a list value")
        0 dom
    in
    let base = env.Extension.fresh_store total in
    let next = ref base in
    let hb = Column.Builder.create Atom.TOid in
    let tb = Column.Builder.create Atom.TOid in
    let pb = Column.Builder.create Atom.TInt in
    let elem_dom = ref [] in
    List.iter
      (fun (ctx, v) ->
        match v with
        | Value.Xv { ext = "LIST"; items; _ } ->
          List.iteri
            (fun i item ->
              Column.Builder.add_oid hb !next;
              Column.Builder.add_oid tb ctx;
              Column.Builder.add_int pb i;
              elem_dom := (!next, item) :: !elem_dom;
              incr next)
            items
        | _ -> assert false)
      dom;
    let heads = Column.Builder.finish hb in
    Mirror_bat.Catalog.put env.Extension.catalog (path ^ "#in")
      (Bat.make heads (Column.Builder.finish tb));
    Mirror_bat.Catalog.put env.Extension.catalog (path ^ "#pos")
      (Bat.make heads (Column.Builder.finish pb));
    let elem = recurse ~path:(path ^ "#el") ~ty:elem_ty ~dom:(List.rev !elem_dom) in
    Shape.Xstruct
      {
        ext = name;
        meta = [];
        bats = [ Mil.Get (path ^ "#in"); Mil.Get (path ^ "#pos") ];
        subs = [ elem ];
      }

  let filter_flat ~recurse ~meta:_ ~bats ~subs ~survivors =
    match (bats, subs) with
    | [ link; pos ], [ elem ] ->
      let link' = Mil.Reverse (Mil.Semijoin (Mil.Reverse link, survivors)) in
      Shape.Xstruct
        {
          ext = name;
          meta = [];
          bats = [ link'; Mil.Semijoin (pos, link') ];
          subs = [ recurse elem link' ];
        }
    | _ -> invalid_arg "LIST.filter_flat: malformed bundle"

  let rebase_flat env ~recurse ~meta:_ ~bats ~subs ~m =
    match (bats, subs) with
    | [ link; pos ], [ elem ] ->
      let j = Mil.Join (m, Mil.Reverse link) in
      let base = env.Extension.fresh 0 in
      let link' = Mil.NumberHead (j, base) in
      let m2 = Mil.NumberTail (j, base) in
      Shape.Xstruct
        {
          ext = name;
          meta = [];
          bats = [ link'; Mil.Join (m2, pos) ];
          subs = [ recurse env elem m2 ];
        }
    | _ -> invalid_arg "LIST.rebase_flat: malformed bundle"

  let reify ~members ~atom ~recurse ~meta:_ ~bats ~subs ~ctx =
    match (bats, subs) with
    | [ link; pos ], [ elem ] ->
      let pos = atom pos in
      members link ctx
      |> List.map (fun e -> (Atom.as_int (pos e), e))
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map (fun (_, e) -> recurse elem e)
      |> Value.vlist
    | _ -> invalid_arg "LIST.reify: malformed bundle"

  let foreign_ops = []

  let op_envelope ~op ~args ~ty ~top =
    match (op, args) with
    | ("tolist" | "tolist_desc"), Moaprop.Set { card; elem } :: _ ->
      Moaprop.Xprop { ext = name; card; elem; ordered = true }
    | "take", [ Moaprop.Xprop { ext; card; elem; ordered }; n ] ->
      (* take n of a list of size s has min(s, max 0 n) elements *)
      let nlo, nhi =
        match n with
        | Moaprop.Atomic { lo; hi; _ } ->
          ( (match lo with Some f -> max 0 (int_of_float f) | None -> 0),
            match hi with Some f -> Some (max 0 (int_of_float f)) | None -> None )
        | _ -> (0, None)
      in
      let hi =
        match (card.Prop.hi, nhi) with
        | Some a, Some b -> Some (min a b)
        | Some a, None -> Some a
        | None, h -> h
      in
      Moaprop.Xprop { ext; card = { Prop.lo = min card.Prop.lo nlo; hi }; elem; ordered }
    | "toset", [ Moaprop.Xprop { card; elem; _ } ] ->
      (* toset keeps every element (no deduplication) *)
      Moaprop.Set { card; elem }
    | _ -> top ty

  let prop_flat ~ctx ~prop ~meta:_ ~nbats ~nsubs =
    match (prop, nbats, nsubs) with
    | Moaprop.Xprop { card; elem; _ }, 2, 1 ->
      let n = Moaprop.card_prod ctx card in
      ( [
          Some { Prop.unknown with Prop.hty = Some Atom.TOid; tty = Some Atom.TOid; card = n };
          Some { Prop.unknown with Prop.hty = Some Atom.TOid; tty = Some Atom.TInt; card = n };
        ],
        [ (elem, n) ] )
    | _ ->
      (List.init nbats (fun _ -> None), List.init nsubs (fun _ -> (Moaprop.Unknown, Prop.any_card)))

  let bind_value ~path ~recurse ~ty_args v =
    match (ty_args, v) with
    | [ elem_ty ], Value.Xv { ext = "LIST"; meta; items } ->
      Value.Xv
        { ext = "LIST"; meta; items = List.map (recurse ~path:(path ^ "#el") ~ty:elem_ty) items }
    | _ -> v
end

let register () = Extension.register (module E : Extension.S)
