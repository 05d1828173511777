module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom

type env = { extent : string -> Types.t option }

let ( let* ) = Result.bind

(* Helpers below return bare-string errors; the recursion wraps them
   into located diagnostics at the node where they fire. *)
let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let expect_set what = function
  | Types.Set elem -> Ok elem
  | ty -> err "%s expects a SET, got %s" what (Types.to_string ty)

let expect_atomic what = function
  | Types.Atomic b -> Ok b
  | ty -> err "%s expects an atomic value, got %s" what (Types.to_string ty)

let expect_bool what = function
  | Types.Atomic Atom.TBool -> Ok ()
  | ty -> err "%s expects a boolean, got %s" what (Types.to_string ty)

let binop_type op t1 t2 =
  match (op, t1, t2) with
  | (Bat.Add | Bat.Sub | Bat.Mul | Bat.Div | Bat.MinOp | Bat.MaxOp), Atom.TInt, Atom.TInt ->
    Ok Atom.TInt
  | ( (Bat.Add | Bat.Sub | Bat.Mul | Bat.Div | Bat.MinOp | Bat.MaxOp),
      (Atom.TInt | Atom.TFlt),
      (Atom.TInt | Atom.TFlt) ) ->
    Ok Atom.TFlt
  | Bat.Add, Atom.TStr, Atom.TStr -> Ok Atom.TStr
  | Bat.Pow, (Atom.TInt | Atom.TFlt), (Atom.TInt | Atom.TFlt) -> Ok Atom.TFlt
  | Bat.CmpOp _, a, b when a = b -> Ok Atom.TBool
  | Bat.CmpOp _, (Atom.TInt | Atom.TFlt), (Atom.TInt | Atom.TFlt) -> Ok Atom.TBool
  | (Bat.And | Bat.Or), Atom.TBool, Atom.TBool -> Ok Atom.TBool
  | _ ->
    err "operator %s undefined on %s/%s"
      (Expr.binop_sym op)
      (Atom.ty_name t1) (Atom.ty_name t2)

let unop_type op t =
  match (op, t) with
  | Bat.Not, Atom.TBool -> Ok Atom.TBool
  | Bat.Neg, (Atom.TInt | Atom.TFlt) -> Ok t
  | Bat.Abs, (Atom.TInt | Atom.TFlt) -> Ok t
  | (Bat.Log | Bat.Exp | Bat.Sqrt | Bat.ToFlt), (Atom.TInt | Atom.TFlt) -> Ok Atom.TFlt
  | _ -> err "operator %s undefined on %s" (Expr.unop_name op) (Atom.ty_name t)

let aggr_type a t =
  match a with
  | Bat.Count -> Ok Atom.TInt
  | Bat.Avg -> (
    match t with
    | Atom.TInt | Atom.TFlt -> Ok Atom.TFlt
    | _ -> err "avg requires numeric elements, got %s" (Atom.ty_name t))
  | Bat.Sum | Bat.Prod -> (
    match t with
    | Atom.TInt | Atom.TFlt -> Ok t
    | _ -> err "%s requires numeric elements, got %s" (Expr.aggr_name a) (Atom.ty_name t))
  | Bat.Min | Bat.Max -> Ok t

let diag path expr message =
  { Moaprop.severity = Moaprop.Error; path; op = Expr.op_name expr; message }

let rec infer_at env vars path expr =
  let err fmt = Printf.ksprintf (fun s -> Error (diag path expr s)) fmt in
  let locate r = Result.map_error (diag path expr) r in
  let sub ?vars:(vs = vars) slot e = infer_at env vs (path ^ slot ^ "/" ^ Expr.op_name e) e in
  match expr with
  | Expr.Extent name -> (
    match env.extent name with
    | Some ty -> Ok ty
    | None -> err "unknown extent %S" name)
  | Expr.Lit (v, ty) ->
    if Value.type_ok ty v then Ok ty
    else err "literal %s does not have declared type %s" (Value.to_string v) (Types.to_string ty)
  | Expr.Var v -> (
    match List.assoc_opt v vars with
    | Some ty -> Ok ty
    | None -> err "unbound variable %S" v)
  | Expr.Field (e, f) -> (
    let* ty = sub "" e in
    match Types.field ty f with
    | Some fty -> Ok fty
    | None -> err "type %s has no field %S" (Types.to_string ty) f)
  | Expr.Tuple fields ->
    let labels = List.map fst fields in
    if List.length (List.sort_uniq String.compare labels) <> List.length labels then
      err "duplicate tuple labels"
    else
      let* ftys =
        List.fold_left
          (fun acc (l, e) ->
            let* acc = acc in
            let* ty = sub (":" ^ l) e in
            Ok ((l, ty) :: acc))
          (Ok []) fields
      in
      Ok (Types.Tuple (List.rev ftys))
  | Expr.Map { v; body; src } ->
    let* src_ty = sub ":src" src in
    let* elem = locate (expect_set "map" src_ty) in
    let* body_ty = sub ~vars:((v, elem) :: vars) ":body" body in
    Ok (Types.Set body_ty)
  | Expr.Select { v; pred; src } ->
    let* src_ty = sub ":src" src in
    let* elem = locate (expect_set "select" src_ty) in
    let* pred_ty = sub ~vars:((v, elem) :: vars) ":pred" pred in
    let* () = locate (expect_bool "select predicate" pred_ty) in
    Ok src_ty
  | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
    if l1 = l2 then err "join labels must differ"
    else
      let* lty = sub ":l" left in
      let* e1 = locate (expect_set "join (left)" lty) in
      let* rty = sub ":r" right in
      let* e2 = locate (expect_set "join (right)" rty) in
      let* pred_ty = sub ~vars:((v1, e1) :: (v2, e2) :: vars) ":pred" pred in
      let* () = locate (expect_bool "join predicate" pred_ty) in
      Ok (Types.Set (Types.Tuple [ (l1, e1); (l2, e2) ]))
  | Expr.Semijoin { v1; v2; pred; left; right } ->
    let* lty = sub ":l" left in
    let* e1 = locate (expect_set "semijoin (left)" lty) in
    let* rty = sub ":r" right in
    let* e2 = locate (expect_set "semijoin (right)" rty) in
    let* pred_ty = sub ~vars:((v1, e1) :: (v2, e2) :: vars) ":pred" pred in
    let* () = locate (expect_bool "semijoin predicate" pred_ty) in
    Ok lty
  | Expr.Aggr (Bat.Count, e) ->
    let* ty = sub "" e in
    let* _ = locate (expect_set "count" ty) in
    Ok (Types.Atomic Atom.TInt)
  | Expr.Aggr (a, e) ->
    let* ty = sub "" e in
    let* elem = locate (expect_set (Expr.aggr_name a) ty) in
    let* base = locate (expect_atomic (Expr.aggr_name a) elem) in
    let* rty = locate (aggr_type a base) in
    Ok (Types.Atomic rty)
  | Expr.Binop (op, a, b) ->
    let* ta = sub ":l" a in
    let* tb = sub ":r" b in
    let* ba = locate (expect_atomic "binary operator" ta) in
    let* bb = locate (expect_atomic "binary operator" tb) in
    let* rty = locate (binop_type op ba bb) in
    Ok (Types.Atomic rty)
  | Expr.Unop (op, e) ->
    let* ty = sub "" e in
    let* base = locate (expect_atomic "unary operator" ty) in
    let* rty = locate (unop_type op base) in
    Ok (Types.Atomic rty)
  | Expr.Exists e ->
    let* ty = sub "" e in
    let* _ = locate (expect_set "exists" ty) in
    Ok (Types.Atomic Atom.TBool)
  | Expr.Member (x, s) ->
    let* tx = sub ":l" x in
    let* bx = locate (expect_atomic "in" tx) in
    let* ts = sub ":r" s in
    let* elem = locate (expect_set "in" ts) in
    let* bs = locate (expect_atomic "in (set elements)" elem) in
    if bx = bs then Ok (Types.Atomic Atom.TBool)
    else err "in: element type %s vs set of %s" (Atom.ty_name bx) (Atom.ty_name bs)
  | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Inter (a, b) ->
    let what =
      match expr with Expr.Union _ -> "union" | Expr.Diff _ -> "diff" | _ -> "inter"
    in
    let* ta = sub ":l" a in
    let* ea = locate (expect_set what ta) in
    let* _ = locate (expect_atomic (what ^ " (elements)") ea) in
    let* tb = sub ":r" b in
    let* eb = locate (expect_set what tb) in
    if Types.equal ea eb then Ok ta
    else err "%s: element types differ (%s vs %s)" what (Types.to_string ea) (Types.to_string eb)
  | Expr.Flat e -> (
    let* ty = sub "" e in
    let* elem = locate (expect_set "flatten" ty) in
    match elem with
    | Types.Set inner -> Ok (Types.Set inner)
    | _ -> err "flatten expects SET<SET<T>>, got %s" (Types.to_string ty))
  | Expr.Nest { src; key; inner } -> (
    let* ty = sub "" src in
    let* elem = locate (expect_set "nest" ty) in
    match elem with
    | Types.Tuple fields -> (
      if List.mem_assoc inner fields then err "nest: label %S already used" inner
      else
        match List.assoc_opt key fields with
        | Some (Types.Atomic _ as kty) ->
          Ok (Types.Set (Types.Tuple [ (key, kty); (inner, Types.Set elem) ]))
        | Some other -> err "nest key %S must be atomic, got %s" key (Types.to_string other)
        | None -> err "nest: no field %S" key)
    | _ -> err "nest expects a set of tuples, got %s" (Types.to_string ty))
  | Expr.Unnest { src; field } -> (
    let* ty = sub "" src in
    let* elem = locate (expect_set "unnest" ty) in
    match elem with
    | Types.Tuple fields -> (
      match List.assoc_opt field fields with
      | Some (Types.Set inner) -> (
        let others = List.filter (fun (l, _) -> l <> field) fields in
        match inner with
        | Types.Tuple ifields ->
          let merged = others @ ifields in
          let labels = List.map fst merged in
          if List.length (List.sort_uniq String.compare labels) <> List.length labels then
            err "unnest: label clash between outer and inner tuples"
          else Ok (Types.Set (Types.Tuple merged))
        | _ -> Ok (Types.Set (Types.Tuple (others @ [ (field, inner) ]))))
      | Some other -> err "unnest field %S must be a SET, got %s" field (Types.to_string other)
      | None -> err "unnest: no field %S" field)
    | _ -> err "unnest expects a set of tuples, got %s" (Types.to_string ty))
  | Expr.ExtOp { op; args } -> (
    match Extension.find_op op with
    | None -> err "unknown operator %S" op
    | Some (module E : Extension.S) ->
      let* arg_tys =
        List.fold_left
          (fun (i, acc) e ->
            ( i + 1,
              let* acc = acc in
              let* ty = sub (":" ^ string_of_int i) e in
              Ok (ty :: acc) ))
          (0, Ok []) args
        |> snd
      in
      locate (E.op_type ~op ~args:(List.rev arg_tys)))

let infer env expr = infer_at env [] (Expr.op_name expr) expr

let infer_with ?path env ~vars expr =
  let path = match path with Some p -> p | None -> Expr.op_name expr in
  infer_at env vars path expr

let diag_to_string = Mirror_bat.Milcheck.diag_to_string
