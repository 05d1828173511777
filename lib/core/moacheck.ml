module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module P = Mirror_bat.Milprop
module Milcheck = Mirror_bat.Milcheck
module Mil = Mirror_bat.Mil

type env = {
  extent_type : string -> Types.t option;
  extent_prop : string -> Moaprop.t option;
}

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let rec top_of_type = function
  | Types.Atomic ty -> Moaprop.atomic ty
  | Types.Tuple fields -> Moaprop.Tuple (List.map (fun (l, t) -> (l, top_of_type t)) fields)
  | Types.Set elem -> Moaprop.Set { card = P.any_card; elem = top_of_type elem }
  | Types.Xt (ext, _) ->
    Moaprop.Xprop
      { ext; card = P.any_card; elem = Moaprop.Unknown; ordered = String.equal ext "LIST" }

let env_of_storage st =
  let tenv = Storage.typecheck_env st in
  let cache = Hashtbl.create 8 in
  {
    extent_type = (fun name -> tenv.Typecheck.extent name);
    extent_prop =
      (fun name ->
        match Hashtbl.find_opt cache name with
        | Some p -> p
        | None ->
          let p =
            Option.map
              (fun rows -> Moaprop.of_value (Value.VSet rows))
              (Storage.extent_rows st name)
          in
          Hashtbl.add cache name p;
          p);
  }

(* ------------------------------------------------------------------ *)
(* Inference state                                                     *)
(* ------------------------------------------------------------------ *)

type ictx = {
  env : env;
  tenv : Typecheck.env;
  props : (string, Moaprop.t) Hashtbl.t;  (* path -> inferred envelope *)
  mutable diags : Moaprop.diag list;  (* reversed *)
}

let emit ictx severity path expr fmt =
  Printf.ksprintf
    (fun message ->
      ictx.diags <- { Moaprop.severity; path; op = Expr.op_name expr; message } :: ictx.diags)
    fmt

(* Variables are bound to (envelope, structure type); the type is only
   needed where inference has to consult [Typecheck] (extension
   operators and binder element types) and may be absent when the
   source is itself ill-typed — inference then degrades to Unknown. *)
let tvars vars = List.filter_map (fun (v, (_, ty)) -> Option.map (fun t -> (v, t)) ty) vars

let type_of ictx vars e =
  match Typecheck.infer_with ictx.tenv ~vars:(tvars vars) e with
  | Ok ty -> Some ty
  | Error _ -> None

let elem_ty ictx vars src =
  match type_of ictx vars src with Some (Types.Set t) -> Some t | _ -> None

(* ------------------------------------------------------------------ *)
(* Small lattice accessors                                             *)
(* ------------------------------------------------------------------ *)

let range_of = function Moaprop.Atomic { lo; hi; _ } -> (lo, hi) | _ -> (None, None)
let bconst_of = function Moaprop.Atomic { bconst; _ } -> bconst | _ -> None
let is_int = function Moaprop.Atomic { ty = Atom.TInt; _ } -> true | _ -> false

let statically_empty p =
  match Moaprop.card_of p with Some { P.hi = Some 0; _ } -> true | _ -> false

let set_parts ictx path expr what p =
  match p with
  | Moaprop.Set { card; elem } -> Some (card, elem)
  | Moaprop.Unknown -> Some (P.any_card, Moaprop.Unknown)
  | _ ->
    emit ictx Moaprop.Error path expr "%s expects a SET, got %s" what (Moaprop.to_string p);
    None

let atom_arg ictx path expr what p =
  match p with
  | Moaprop.Atomic { ty; _ } -> Some ty
  | Moaprop.Unknown -> None
  | _ ->
    emit ictx Moaprop.Error path expr "%s expects an atomic value, got %s" what
      (Moaprop.to_string p);
    None

let map2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

(* ------------------------------------------------------------------ *)
(* Atom-level transfer functions                                       *)
(* ------------------------------------------------------------------ *)

(* Integer comparisons can be decided from exact interval endpoints;
   float comparisons are left undecided (a bound within rounding
   tolerance of the pivot must not flip the verdict). *)
let decide_cmp c (alo, ahi) (blo, bhi) =
  let sure_lt x y = match (x, y) with Some a, Some b -> a < b | _ -> false in
  let sure_le x y = match (x, y) with Some a, Some b -> a <= b | _ -> false in
  match c with
  | Bat.Lt ->
    if sure_lt ahi blo then Some true else if sure_le bhi alo then Some false else None
  | Bat.Le ->
    if sure_le ahi blo then Some true else if sure_lt bhi alo then Some false else None
  | Bat.Gt ->
    if sure_lt bhi alo then Some true else if sure_le ahi blo then Some false else None
  | Bat.Ge ->
    if sure_le bhi alo then Some true else if sure_lt ahi blo then Some false else None
  | Bat.Eq ->
    if sure_lt ahi blo || sure_lt bhi alo then Some false
    else if alo = ahi && blo = bhi && alo <> None && alo = blo then Some true
    else None
  | Bat.Ne ->
    if sure_lt ahi blo || sure_lt bhi alo then Some true
    else if alo = ahi && blo = bhi && alo <> None && alo = blo then Some false
    else None

let binop_prop op rty pa pb =
  let alo, ahi = range_of pa and blo, bhi = range_of pb in
  match op with
  | Bat.Add when rty <> Atom.TStr ->
    Moaprop.atomic_range rty (map2 ( +. ) alo blo) (map2 ( +. ) ahi bhi)
  | Bat.Add -> Moaprop.atomic rty
  | Bat.Sub -> Moaprop.atomic_range rty (map2 ( -. ) alo bhi) (map2 ( -. ) ahi blo)
  | Bat.Mul -> (
    match (alo, ahi, blo, bhi) with
    | Some al, Some ah, Some bl, Some bh ->
      let c = [ al *. bl; al *. bh; ah *. bl; ah *. bh ] in
      Moaprop.atomic_range rty
        (Some (List.fold_left Float.min Float.infinity c))
        (Some (List.fold_left Float.max Float.neg_infinity c))
    | _ -> Moaprop.atomic rty)
  | Bat.Div | Bat.Pow ->
    (* Integer division truncates and both can produce non-finite
       values; claim nothing. *)
    Moaprop.atomic rty
  | Bat.MinOp ->
    let hi =
      match (ahi, bhi) with
      | Some x, Some y -> Some (Float.min x y)
      | Some x, None -> Some x
      | None, y -> y
    in
    Moaprop.atomic_range rty (map2 Float.min alo blo) hi
  | Bat.MaxOp ->
    let lo =
      match (alo, blo) with
      | Some x, Some y -> Some (Float.max x y)
      | Some x, None -> Some x
      | None, y -> y
    in
    Moaprop.atomic_range rty lo (map2 Float.max ahi bhi)
  | Bat.CmpOp c ->
    let bc = if is_int pa && is_int pb then decide_cmp c (alo, ahi) (blo, bhi) else None in
    Moaprop.Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = bc }
  | Bat.And ->
    let bc =
      match (bconst_of pa, bconst_of pb) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None
    in
    Moaprop.Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = bc }
  | Bat.Or ->
    let bc =
      match (bconst_of pa, bconst_of pb) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None
    in
    Moaprop.Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = bc }

(* NaN discipline: an envelope with any [Some] numeric bound implies
   the value is not NaN, because every rule that can produce NaN
   (sqrt/log outside their domain, division, pow) claims no bounds,
   and every other rule only states bounds derived from bounded —
   hence non-NaN — inputs. *)
let unop_prop op rty p =
  let lo, hi = range_of p in
  match op with
  | Bat.Not ->
    Moaprop.Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = Option.map not (bconst_of p) }
  | Bat.Neg -> Moaprop.atomic_range rty (Option.map Float.neg hi) (Option.map Float.neg lo)
  | Bat.Abs -> (
    match (lo, hi) with
    | Some l, _ when l >= 0.0 -> Moaprop.atomic_range rty lo hi
    | _, Some h when h <= 0.0 ->
      Moaprop.atomic_range rty (Option.map Float.neg hi) (Option.map Float.neg lo)
    | Some l, Some h ->
      Moaprop.atomic_range rty (Some 0.0) (Some (Float.max (Float.abs l) (Float.abs h)))
    | Some _, None -> Moaprop.atomic_range rty (Some 0.0) None
    | None, _ -> Moaprop.atomic rty)
  | Bat.ToFlt -> Moaprop.atomic_range rty lo hi
  | Bat.Exp -> Moaprop.atomic_range rty (Option.map Float.exp lo) (Option.map Float.exp hi)
  | Bat.Sqrt -> (
    match lo with
    | Some l when l >= 0.0 ->
      Moaprop.atomic_range rty (Some (Float.sqrt l)) (Option.map Float.sqrt hi)
    | _ -> Moaprop.atomic rty)
  | Bat.Log -> (
    match lo with
    | Some l when l > 0.0 ->
      Moaprop.atomic_range rty (Some (Float.log l)) (Option.map Float.log hi)
    | _ -> Moaprop.atomic rty)

let aggr_prop ictx path expr a (c : P.card) ep =
  let err fmt = emit ictx Moaprop.Error path expr fmt in
  let lo, hi = range_of ep in
  let ety = match ep with Moaprop.Atomic { ty; _ } -> Some ty | _ -> None in
  (* An empty input aggregates to the neutral/default value 0 (0.0), so
     widen the range over it whenever emptiness can't be ruled out. *)
  let with_empty (lo, hi) =
    if c.P.lo = 0 then (Option.map (Float.min 0.0) lo, Option.map (Float.max 0.0) hi)
    else (lo, hi)
  in
  match a with
  | Bat.Count ->
    Moaprop.atomic_range Atom.TInt
      (Some (float_of_int c.P.lo))
      (Option.map float_of_int c.P.hi)
  | Bat.Sum -> (
    match ety with
    | Some ((Atom.TInt | Atom.TFlt) as t) ->
      let slo, shi = Moaprop.sum_range c lo hi in
      Moaprop.atomic_range t slo shi
    | Some t ->
      err "sum requires numeric elements, got %s" (Atom.ty_name t);
      Moaprop.Unknown
    | None -> Moaprop.Unknown)
  | Bat.Prod -> (
    match ety with
    | Some ((Atom.TInt | Atom.TFlt) as t) -> Moaprop.atomic t
    | Some t ->
      err "prod requires numeric elements, got %s" (Atom.ty_name t);
      Moaprop.Unknown
    | None -> Moaprop.Unknown)
  | Bat.Avg -> (
    match ety with
    | Some (Atom.TInt | Atom.TFlt) ->
      let lo', hi' = with_empty (lo, hi) in
      Moaprop.atomic_range Atom.TFlt lo' hi'
    | Some t ->
      err "avg requires numeric elements, got %s" (Atom.ty_name t);
      Moaprop.Unknown
    | None -> Moaprop.Unknown)
  | Bat.Min | Bat.Max -> (
    match ety with
    | Some ((Atom.TInt | Atom.TFlt) as t) ->
      let lo', hi' = with_empty (lo, hi) in
      Moaprop.atomic_range t lo' hi'
    | Some t -> Moaprop.atomic t
    | None -> Moaprop.Unknown)

(* ------------------------------------------------------------------ *)
(* The abstract interpreter                                            *)
(* ------------------------------------------------------------------ *)

let rec infer_at ictx vars path expr =
  let prop = infer_node ictx vars path expr in
  Hashtbl.replace ictx.props path prop;
  prop

and infer_node ictx vars path expr =
  let err fmt = emit ictx Moaprop.Error path expr fmt in
  let child ?vars:(vs = vars) slot e = infer_at ictx vs (path ^ slot ^ "/" ^ Expr.op_name e) e in
  let check_bool_pred what p =
    match p with
    | Moaprop.Atomic { ty; _ } when ty <> Atom.TBool ->
      err "%s predicate must be boolean, got %s" what (Atom.ty_name ty)
    | _ -> ()
  in
  match expr with
  | Expr.Extent name -> (
    match ictx.env.extent_prop name with
    | Some p -> p
    | None -> (
      match ictx.env.extent_type name with
      | Some ty -> top_of_type ty
      | None ->
        err "unknown extent %S" name;
        Moaprop.Unknown))
  | Expr.Lit (v, ty) ->
    if Value.type_ok ty v then Moaprop.of_value v
    else begin
      err "literal %s does not have declared type %s" (Value.to_string v) (Types.to_string ty);
      Moaprop.Unknown
    end
  | Expr.Var v -> (
    match List.assoc_opt v vars with
    | Some (p, _) -> p
    | None ->
      err "unbound variable %S" v;
      Moaprop.Unknown)
  | Expr.Field (e, f) -> (
    let p = child "" e in
    match p with
    | Moaprop.Tuple fields -> (
      match List.assoc_opt f fields with
      | Some fp -> fp
      | None ->
        err "tuple has no field %S" f;
        Moaprop.Unknown)
    | Moaprop.Unknown -> Moaprop.Unknown
    | _ ->
      err "field %S selected from a non-tuple (%s)" f (Moaprop.to_string p);
      Moaprop.Unknown)
  | Expr.Tuple fields ->
    let labels = List.map fst fields in
    if List.length (List.sort_uniq String.compare labels) <> List.length labels then
      err "duplicate tuple labels";
    Moaprop.Tuple (List.map (fun (l, e) -> (l, child (":" ^ l) e)) fields)
  | Expr.Map { v; body; src } -> (
    let ps = child ":src" src in
    match set_parts ictx path expr "map" ps with
    | None -> Moaprop.Unknown
    | Some (c, ep) ->
      let ety = elem_ty ictx vars src in
      let pb = child ~vars:((v, (ep, ety)) :: vars) ":body" body in
      Moaprop.Set { card = c; elem = pb })
  | Expr.Select { v; pred; src } -> (
    let ps = child ":src" src in
    match set_parts ictx path expr "select" ps with
    | None -> Moaprop.Unknown
    | Some (c, ep) ->
      let ety = elem_ty ictx vars src in
      let pp = child ~vars:((v, (ep, ety)) :: vars) ":pred" pred in
      check_bool_pred "select" pp;
      let card =
        match bconst_of pp with
        | Some false -> P.exactly 0
        | Some true -> c
        | None -> P.card_upto c
      in
      Moaprop.Set { card; elem = ep })
  | Expr.Join { v1; v2; pred; left; right; l1; l2 } -> (
    let pl = child ":l" left in
    let pr = child ":r" right in
    match
      (set_parts ictx path expr "join (left)" pl, set_parts ictx path expr "join (right)" pr)
    with
    | Some (ca, ea), Some (cb, eb) ->
      if String.equal l1 l2 then err "join labels must differ";
      let t1 = elem_ty ictx vars left and t2 = elem_ty ictx vars right in
      let pp = child ~vars:((v1, (ea, t1)) :: (v2, (eb, t2)) :: vars) ":pred" pred in
      check_bool_pred "join" pp;
      let full = Moaprop.card_prod ca cb in
      let card =
        match bconst_of pp with
        | Some true -> full
        | Some false -> P.exactly 0
        | None -> { P.lo = 0; hi = full.P.hi }
      in
      Moaprop.Set { card; elem = Moaprop.Tuple [ (l1, ea); (l2, eb) ] }
    | _ -> Moaprop.Unknown)
  | Expr.Semijoin { v1; v2; pred; left; right } -> (
    let pl = child ":l" left in
    let pr = child ":r" right in
    match
      ( set_parts ictx path expr "semijoin (left)" pl,
        set_parts ictx path expr "semijoin (right)" pr )
    with
    | Some (ca, ea), Some (cb, eb) ->
      let t1 = elem_ty ictx vars left and t2 = elem_ty ictx vars right in
      let pp = child ~vars:((v1, (ea, t1)) :: (v2, (eb, t2)) :: vars) ":pred" pred in
      check_bool_pred "semijoin" pp;
      let card =
        match bconst_of pp with
        | Some false -> P.exactly 0
        | _ when cb.P.hi = Some 0 -> P.exactly 0
        | Some true when cb.P.lo > 0 -> ca
        | _ -> P.card_upto ca
      in
      Moaprop.Set { card; elem = ea }
    | _ -> Moaprop.Unknown)
  | Expr.Aggr (a, e) -> (
    let p = child "" e in
    match set_parts ictx path expr (Expr.aggr_name a) p with
    | None -> Moaprop.Unknown
    | Some (c, ep) -> aggr_prop ictx path expr a c ep)
  | Expr.Binop (op, a, b) -> (
    let pa = child ":l" a in
    let pb = child ":r" b in
    match
      ( atom_arg ictx path expr "binary operator" pa,
        atom_arg ictx path expr "binary operator" pb )
    with
    | Some ba, Some bb -> (
      match Typecheck.binop_type op ba bb with
      | Error msg ->
        err "%s" msg;
        Moaprop.Unknown
      | Ok rty -> binop_prop op rty pa pb)
    | _ -> Moaprop.Unknown)
  | Expr.Unop (op, e) -> (
    let p = child "" e in
    match atom_arg ictx path expr "unary operator" p with
    | None -> Moaprop.Unknown
    | Some base -> (
      match Typecheck.unop_type op base with
      | Error msg ->
        err "%s" msg;
        Moaprop.Unknown
      | Ok rty -> unop_prop op rty p))
  | Expr.Exists e -> (
    let p = child "" e in
    match set_parts ictx path expr "exists" p with
    | None -> Moaprop.Unknown
    | Some (c, _) ->
      let bc = if c.P.lo > 0 then Some true else if c.P.hi = Some 0 then Some false else None in
      Moaprop.Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = bc })
  | Expr.Member (x, s) -> (
    let px = child ":l" x in
    let ps = child ":r" s in
    ignore (atom_arg ictx path expr "in" px);
    match set_parts ictx path expr "in" ps with
    | None -> Moaprop.Unknown
    | Some (c, _) ->
      let bc = if c.P.hi = Some 0 then Some false else None in
      Moaprop.Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = bc })
  | Expr.Union (a, b) -> (
    let pa = child ":l" a in
    let pb = child ":r" b in
    match
      (set_parts ictx path expr "union" pa, set_parts ictx path expr "union" pb)
    with
    | Some (ca, ea), Some (cb, eb) ->
      let lo = if ca.P.lo > 0 || cb.P.lo > 0 then 1 else 0 in
      (* union of an expression with itself is the distinct idiom: the
         result can't outgrow one operand *)
      if a = b then Moaprop.Set { card = { P.lo; hi = ca.P.hi }; elem = ea }
      else
        Moaprop.Set { card = { P.lo; hi = (P.card_add ca cb).P.hi }; elem = Moaprop.join ea eb }
    | _ -> Moaprop.Unknown)
  | Expr.Diff (a, b) -> (
    let pa = child ":l" a in
    let pb = child ":r" b in
    match (set_parts ictx path expr "diff" pa, set_parts ictx path expr "diff" pb) with
    | Some (ca, ea), Some (cb, _) ->
      let lo = if cb.P.hi = Some 0 && ca.P.lo > 0 then 1 else 0 in
      Moaprop.Set { card = { P.lo; hi = ca.P.hi }; elem = ea }
    | _ -> Moaprop.Unknown)
  | Expr.Inter (a, b) -> (
    let pa = child ":l" a in
    let pb = child ":r" b in
    match (set_parts ictx path expr "inter" pa, set_parts ictx path expr "inter" pb) with
    | Some (ca, ea), Some (cb, _) ->
      let hi =
        match (ca.P.hi, cb.P.hi) with
        | Some x, Some y -> Some (min x y)
        | Some x, None -> Some x
        | None, y -> y
      in
      Moaprop.Set { card = { P.lo = 0; hi }; elem = ea }
    | _ -> Moaprop.Unknown)
  | Expr.Flat e -> (
    let p = child "" e in
    match set_parts ictx path expr "flatten" p with
    | None -> Moaprop.Unknown
    | Some (c1, ep) -> (
      match ep with
      | Moaprop.Set { card = c2; elem = ie } ->
        Moaprop.Set { card = Moaprop.card_prod c1 c2; elem = ie }
      | Moaprop.Unknown ->
        let hi = match c1.P.hi with Some 0 -> Some 0 | _ -> None in
        Moaprop.Set { card = { P.lo = 0; hi }; elem = Moaprop.Unknown }
      | _ ->
        err "flatten expects SET<SET<T>>";
        Moaprop.Unknown))
  | Expr.Nest { src; key; inner } -> (
    let p = child "" src in
    match set_parts ictx path expr "nest" p with
    | None -> Moaprop.Unknown
    | Some (c, ep) ->
      let kp =
        match ep with
        | Moaprop.Tuple fields -> (
          match List.assoc_opt key fields with
          | Some kp -> Some kp
          | None ->
            err "nest: no field %S" key;
            None)
        | Moaprop.Unknown -> Some Moaprop.Unknown
        | _ ->
          err "nest expects a set of tuples";
          None
      in
      (match kp with
      | None -> Moaprop.Unknown
      | Some kp ->
        (* at most one group per row, at least one if any rows; each
           group is non-empty and no larger than the whole input *)
        let outer = { P.lo = (if c.P.lo > 0 then 1 else 0); hi = c.P.hi } in
        let gcard = { P.lo = 1; hi = c.P.hi } in
        Moaprop.Set
          {
            card = outer;
            elem =
              Moaprop.Tuple
                [ (key, kp); (inner, Moaprop.Set { card = gcard; elem = ep }) ];
          }))
  | Expr.Unnest { src; field } -> (
    let p = child "" src in
    match set_parts ictx path expr "unnest" p with
    | None -> Moaprop.Unknown
    | Some (c, ep) -> (
      let loose () =
        let hi = match c.P.hi with Some 0 -> Some 0 | _ -> None in
        Moaprop.Set { card = { P.lo = 0; hi }; elem = Moaprop.Unknown }
      in
      match ep with
      | Moaprop.Tuple fields -> (
        match List.assoc_opt field fields with
        | Some (Moaprop.Set { card = fc; elem = fe }) ->
          let others = List.filter (fun (l, _) -> not (String.equal l field)) fields in
          let elem =
            match fe with
            | Moaprop.Tuple ifields -> Moaprop.Tuple (others @ ifields)
            | Moaprop.Unknown -> Moaprop.Unknown
            | fp -> Moaprop.Tuple (others @ [ (field, fp) ])
          in
          Moaprop.Set { card = Moaprop.card_prod c fc; elem }
        | Some Moaprop.Unknown -> loose ()
        | Some _ ->
          err "unnest field %S must be a SET" field;
          Moaprop.Unknown
        | None ->
          err "unnest: no field %S" field;
          Moaprop.Unknown)
      | Moaprop.Unknown -> loose ()
      | _ ->
        err "unnest expects a set of tuples";
        Moaprop.Unknown))
  | Expr.ExtOp { op; args } -> (
    match Extension.find_op op with
    | None ->
      err "unknown operator %S" op;
      Moaprop.Unknown
    | Some (module E : Extension.S) -> (
      let arg_props = List.mapi (fun i e -> child (":" ^ string_of_int i) e) args in
      let arg_tys =
        List.fold_left
          (fun acc e ->
            match acc with
            | None -> None
            | Some tys -> Option.map (fun t -> t :: tys) (type_of ictx vars e))
          (Some []) args
        |> Option.map List.rev
      in
      match arg_tys with
      | None -> Moaprop.Unknown
      | Some arg_tys -> (
        match E.op_type ~op ~args:arg_tys with
        | Error msg ->
          err "%s" msg;
          Moaprop.Unknown
        | Ok ty -> E.op_envelope ~op ~args:arg_props ~ty ~top:top_of_type)))

let make_ictx env = { env; tenv = { Typecheck.extent = env.extent_type }; props = Hashtbl.create 64; diags = [] }

let infer env expr =
  let ictx = make_ictx env in
  let prop = infer_at ictx [] (Expr.op_name expr) expr in
  (prop, List.rev ictx.diags)

let verify env expr =
  let prop, diags = infer env expr in
  match Milcheck.errors diags with [] -> Ok prop | es -> Stdlib.Error es

(* ------------------------------------------------------------------ *)
(* Logical-level lint                                                  *)
(* ------------------------------------------------------------------ *)

let lint env expr =
  let ictx = make_ictx env in
  let root = Expr.op_name expr in
  ignore (infer_at ictx [] root expr);
  let inference = List.rev ictx.diags in
  let smells = ref [] in
  let smell severity path e fmt =
    Printf.ksprintf
      (fun message ->
        smells := { Moaprop.severity; path; op = Expr.op_name e; message } :: !smells)
      fmt
  in
  (* [infer_at] keyed every node's envelope by its (unique) path, so
     the smell walk just replays the same path construction. *)
  let prop_at path = Hashtbl.find_opt ictx.props path in
  let child_path path slot e = path ^ slot ^ "/" ^ Expr.op_name e in
  let empty_at path = match prop_at path with Some p -> statically_empty p | None -> false in
  let rec walk path parent_empty e =
    let empty = empty_at path in
    if empty && not parent_empty then
      smell Moaprop.Warning path e "statically empty — the subexpression is dead";
    (match e with
    | Expr.Select { pred; _ } -> (
      match prop_at (child_path path ":pred" pred) with
      | Some (Moaprop.Atomic { bconst = Some false; _ }) ->
        smell Moaprop.Warning path e "statically unsatisfiable selection"
      | Some (Moaprop.Atomic { bconst = Some true; _ }) ->
        smell Moaprop.Hint path e "selection predicate is statically true"
      | _ -> ())
    | Expr.Unnest { src = Expr.Nest { inner; _ }; field } when String.equal field inner ->
      smell Moaprop.Hint path e "unnest of the nest it wraps — redundant nesting"
    | Expr.ExtOp { op = "getBL"; args = recv :: query :: _ } ->
      if empty_at (child_path path ":0" recv) then
        smell Moaprop.Warning path e "getBL over provably empty content"
      else if empty_at (child_path path ":1" query) then
        smell Moaprop.Warning path e "getBL with a provably empty query"
    | _ -> ());
    let down slot c = walk (child_path path slot c) empty c in
    match e with
    | Expr.Extent _ | Expr.Lit _ | Expr.Var _ -> ()
    | Expr.Field (x, _) | Expr.Unop (_, x) | Expr.Aggr (_, x) | Expr.Exists x | Expr.Flat x ->
      down "" x
    | Expr.Nest { src; _ } | Expr.Unnest { src; _ } -> down "" src
    | Expr.Tuple fields -> List.iter (fun (l, x) -> down (":" ^ l) x) fields
    | Expr.Map { body; src; _ } ->
      down ":src" src;
      down ":body" body
    | Expr.Select { pred; src; _ } ->
      down ":src" src;
      down ":pred" pred
    | Expr.Join { pred; left; right; _ } | Expr.Semijoin { pred; left; right; _ } ->
      down ":l" left;
      down ":r" right;
      down ":pred" pred
    | Expr.Binop (_, a, b)
    | Expr.Member (a, b)
    | Expr.Union (a, b)
    | Expr.Diff (a, b)
    | Expr.Inter (a, b) ->
      down ":l" a;
      down ":r" b
    | Expr.ExtOp { args; _ } -> List.iteri (fun i x -> down (":" ^ string_of_int i) x) args
  in
  walk root false expr;
  inference @ List.rev !smells

(* ------------------------------------------------------------------ *)
(* Translation validation                                              *)
(* ------------------------------------------------------------------ *)

(* Both sides over-approximate the same concrete BAT: the logical side
   maps the Moa envelope onto the bundle skeleton, the physical side is
   [Milcheck]'s analysis of the compiled bundle.  If the two envelopes
   don't intersect (per [Milprop.compatible]) no BAT can satisfy both,
   which certifies a broken flattening rule. *)
let validate storage expr analysis shape =
  let env = env_of_storage storage in
  let prop, diags = infer env expr in
  match Milcheck.errors diags with
  | _ :: _ as es -> Stdlib.Error es
  | [] ->
    let bad = ref [] and checks = ref 0 in
    let fail path op fmt =
      Printf.ksprintf
        (fun message ->
          bad := { Moaprop.severity = Moaprop.Error; path; op; message } :: !bad)
        fmt
    in
    let check path expected plan =
      incr checks;
      let inferred = Milcheck.prop analysis plan in
      if not (P.compatible expected inferred) then
        fail path (Mil.op_name plan)
          "flattening broke the envelope: logical side expects %s, physical plan infers %s"
          (P.to_string expected) (P.to_string inferred)
    in
    let bt tty card = { P.unknown with P.hty = Some Atom.TOid; tty; card } in
    let rec walk path ctx prop shape =
      match (prop, shape) with
      | Moaprop.Atomic { ty; _ }, Shape.Atomic plan -> check path (bt (Some ty) ctx) plan
      | Moaprop.Unknown, Shape.Atomic plan -> check path (bt None ctx) plan
      | Moaprop.Tuple fps, Shape.Tuple fss ->
        if
          List.length fps <> List.length fss
          || not (List.for_all2 (fun (lp, _) (ls, _) -> String.equal lp ls) fps fss)
        then
          fail path "tuple" "bundle fields [%s] do not match the envelope's [%s]"
            (String.concat "; " (List.map fst fss))
            (String.concat "; " (List.map fst fps))
        else List.iter2 (fun (l, p) (_, s) -> walk (path ^ ":" ^ l) ctx p s) fps fss
      | Moaprop.Unknown, Shape.Tuple fss ->
        List.iter (fun (l, s) -> walk (path ^ ":" ^ l) ctx Moaprop.Unknown s) fss
      | Moaprop.Set { card; elem }, Shape.Set { link; elem = selem } ->
        let n = Moaprop.card_prod ctx card in
        check (path ^ "/link") (bt (Some Atom.TOid) n) link;
        walk (path ^ "/elem") n elem selem
      | Moaprop.Unknown, Shape.Set { link; elem = selem } ->
        check (path ^ "/link") (bt (Some Atom.TOid) P.any_card) link;
        walk (path ^ "/elem") P.any_card Moaprop.Unknown selem
      | (Moaprop.Xprop _ | Moaprop.Unknown), Shape.Xstruct { ext; meta; bats; subs } -> (
        let ext_ok =
          match prop with
          | Moaprop.Xprop { ext = pext; _ } -> String.equal pext ext
          | _ -> true
        in
        if not ext_ok then
          fail path ext "envelope names extension %s but the bundle is %s"
            (match prop with Moaprop.Xprop { ext = pext; _ } -> pext | _ -> "?")
            ext
        else
          match Extension.find ext with
          | None -> fail path ext "bundle uses unregistered extension %S" ext
          | Some (module E : Extension.S) ->
            let nbats = List.length bats and nsubs = List.length subs in
            let bexp, sexp = E.prop_flat ~ctx ~prop ~meta ~nbats ~nsubs in
            if List.length bexp <> nbats || List.length sexp <> nsubs then
              fail path ext
                "%s.prop_flat returned %d BAT / %d sub expectations for a bundle with %d / %d"
                ext (List.length bexp) (List.length sexp) nbats nsubs
            else begin
              List.iteri
                (fun i (exp, bat) ->
                  match exp with
                  | Some e -> check (path ^ "/bat" ^ string_of_int i) e bat
                  | None -> ())
                (List.combine bexp bats);
              List.iteri
                (fun i ((sp, sc), sub) -> walk (path ^ "/sub" ^ string_of_int i) sc sp sub)
                (List.combine sexp subs)
            end)
      | _, _ ->
        fail path "bundle" "envelope %s does not match the bundle's skeleton"
          (Moaprop.to_string prop)
    in
    walk (Expr.op_name expr) (P.exactly 1) prop shape;
    (match List.rev !bad with [] -> Ok !checks | ds -> Stdlib.Error ds)
