module Mil = Mirror_bat.Mil
module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let root_dom =
  Mil.Lit { hty = Atom.TOid; tty = Atom.TOid; pairs = [ (Atom.Oid 0, Atom.Oid 0) ] }

type env = {
  storage : Storage.t;
  vars : (string * Extension.planshape) list;
  tvars : (string * Types.t) list;
  dom : Mil.t;
  specialize : bool;
}

let flat_env env =
  { Extension.fresh = (fun _ -> Storage.fresh_query_base env.storage); dom = env.dom }

let fresh env = Storage.fresh_query_base env.storage

let infer env e =
  match Typecheck.infer_with (Storage.typecheck_env env.storage) ~vars:env.tvars e with
  | Ok ty -> ty
  | Error d -> fail "flatten: ill-typed subexpression (%s)" (Typecheck.diag_to_string d)

(* {1 Context transformations} *)

let rec filter_shape shape survivors =
  match shape with
  | Shape.Atomic b -> Shape.Atomic (Mil.Semijoin (b, survivors))
  | Shape.Tuple fields ->
    Shape.Tuple (List.map (fun (l, s) -> (l, filter_shape s survivors)) fields)
  | Shape.Set { link; elem } ->
    let link' = Mil.Reverse (Mil.Semijoin (Mil.Reverse link, survivors)) in
    Shape.Set { link = link'; elem = filter_shape elem link' }
  | Shape.Xstruct { ext; meta; bats; subs } ->
    let (module E : Extension.S) = Extension.find_exn ext in
    E.filter_flat ~recurse:filter_shape ~meta ~bats ~subs ~survivors

let rec rebase_shape fenv shape m =
  match shape with
  | Shape.Atomic b -> Shape.Atomic (Mil.Join (m, b))
  | Shape.Tuple fields ->
    Shape.Tuple (List.map (fun (l, s) -> (l, rebase_shape fenv s m)) fields)
  | Shape.Set { link; elem } ->
    let j = Mil.Join (m, Mil.Reverse link) in
    let base = fenv.Extension.fresh 0 in
    let link' = Mil.NumberHead (j, base) in
    (* link' is (new_elem -> new_ctx); the element payloads move with
       m2 : new_elem -> old_elem. *)
    let link_fixed = link' in
    let m2 = Mil.NumberTail (j, base) in
    Shape.Set { link = link_fixed; elem = rebase_shape fenv elem m2 }
  | Shape.Xstruct { ext; meta; bats; subs } ->
    let (module E : Extension.S) = Extension.find_exn ext in
    E.rebase_flat fenv ~recurse:rebase_shape ~meta ~bats ~subs ~m

(* {1 Literals} *)

let rec compile_lit env v ty =
  match (ty, v) with
  | Types.Atomic _, Value.Atom a -> Shape.Atomic (Mil.Project (env.dom, a))
  | Types.Tuple fields, Value.Tup fvs ->
    Shape.Tuple
      (List.map
         (fun (label, fty) ->
           match List.assoc_opt label fvs with
           | Some fv -> (label, compile_lit env fv fty)
           | None -> fail "literal tuple missing field %S" label)
         fields)
  | Types.Set (Types.Atomic base_ty), Value.VSet items ->
    let pairs = List.map (fun item -> (Atom.Oid 0, Value.as_atom item)) items in
    let items_bat = Mil.Lit { hty = Atom.TOid; tty = base_ty; pairs } in
    let cross = Mil.Join (Mil.Project (env.dom, Atom.Oid 0), items_bat) in
    let base = fresh env in
    Shape.Set
      { link = Mil.NumberHead (cross, base); elem = Shape.Atomic (Mil.NumberTail (cross, base)) }
  | _ ->
    fail "unsupported literal %s : %s (only atoms, tuples of atoms and sets of atoms)"
      (Value.to_string v) (Types.to_string ty)

(* {1 Shape accessors} *)

let as_set what = function
  | Shape.Set { link; elem } -> (link, elem)
  | _ -> fail "%s: expected a flattened set" what

let as_atomic what = function
  | Shape.Atomic b -> b
  | _ -> fail "%s: expected a flattened atomic" what

(* Free variables of enclosing binders live over the *outer* element
   domain; under a new binder they are re-keyed onto the inner domain
   through the link (inner element -> outer context), so correlated
   uses align head-wise.  Unused rebased shapes cost nothing — plans
   are lazy. *)
let rebase_vars env m =
  let fenv = flat_env env in
  List.map (fun (v, shape) -> (v, rebase_shape fenv shape m)) env.vars

(* {1 The compiler} *)

let rec compile_env env expr =
  match expr with
  | Expr.Extent name -> (
    match Storage.extent_shape env.storage name with
    | None -> fail "extent %S is not loaded" name
    | Some shape ->
      if env.dom = root_dom then shape
      else
        (* an extent referenced under a binder is context-independent:
           broadcast it onto the current domain (every context gets its
           own copy of the elements, as the naive semantics demands) *)
        rebase_shape (flat_env env) shape (Mil.Project (env.dom, Atom.Oid 0)))
  | Expr.Lit (v, ty) -> compile_lit env v ty
  | Expr.Var v -> (
    match List.assoc_opt v env.vars with
    | Some shape -> shape
    | None -> fail "unbound variable %S" v)
  | Expr.Field (e, f) -> (
    match compile_env env e with
    | Shape.Tuple fields -> (
      match List.assoc_opt f fields with
      | Some s -> s
      | None -> fail "no field %S" f)
    | _ -> fail "field access on non-tuple")
  | Expr.Tuple fields ->
    Shape.Tuple (List.map (fun (l, e) -> (l, compile_env env e)) fields)
  | Expr.Map { v; body; src } ->
    let link, elem = as_set "map" (compile_env env src) in
    let elem_ty = elem_type env src in
    let env' =
      {
        env with
        vars = (v, elem) :: rebase_vars env link;
        tvars = (v, elem_ty) :: env.tvars;
        dom = Mil.Mirror link;
      }
    in
    Shape.Set { link; elem = compile_env env' body }
  | Expr.Select { v; pred; src } ->
    let link, elem = as_set "select" (compile_env env src) in
    let elem_ty = elem_type env src in
    let env' =
      {
        env with
        vars = (v, elem) :: rebase_vars env link;
        tvars = (v, elem_ty) :: env.tvars;
        dom = Mil.Mirror link;
      }
    in
    let pred_bat = as_atomic "select predicate" (compile_env env' pred) in
    let survivors = Mil.SelectBool pred_bat in
    Shape.Set { link = Mil.Semijoin (link, survivors); elem = filter_shape elem survivors }
  | Expr.Aggr (Bat.Count, e) ->
    let link, _ = as_set "count" (compile_env env e) in
    let counts = Mil.GroupAggr (Bat.Count, Mil.Reverse link) in
    Shape.Atomic (Mil.LeftOuterJoin (env.dom, counts, Atom.Int 0))
  | Expr.Aggr (a, e) -> (
    let link, elem = as_set "aggregate" (compile_env env e) in
    match summed env a link elem with
    | Some plan -> Shape.Atomic plan
    | None ->
      let v = as_atomic "aggregate" elem in
      let pairs = Mil.Join (Mil.Reverse link, v) in
      let grouped = Mil.GroupAggr (a, pairs) in
      let base =
        match infer env e with
        | Types.Set (Types.Atomic b) -> b
        | _ -> fail "aggregate of non-atomic set"
      in
      let default = Naive.aggr_empty_default a base in
      Shape.Atomic (Mil.LeftOuterJoin (env.dom, grouped, default)))
  | Expr.Binop (op, a, b) ->
    let pa = as_atomic "binop" (compile_env env a) in
    let pb = as_atomic "binop" (compile_env env b) in
    Shape.Atomic (Mil.Calc2 (op, pa, pb))
  | Expr.Unop (op, e) ->
    Shape.Atomic (Mil.Calc1 (op, as_atomic "unop" (compile_env env e)))
  | Expr.Exists e ->
    let link, _ = as_set "exists" (compile_env env e) in
    let counts = Mil.GroupAggr (Bat.Count, Mil.Reverse link) in
    let defaulted = Mil.LeftOuterJoin (env.dom, counts, Atom.Int 0) in
    Shape.Atomic (Mil.CalcConst (Bat.CmpOp Bat.Gt, defaulted, Atom.Int 0))
  | Expr.Member (x, s) ->
    let px = as_atomic "in" (compile_env env x) in
    let link, elem = as_set "in" (compile_env env s) in
    let v = as_atomic "in (set elements)" elem in
    let pairs = Mil.Join (Mil.Reverse link, v) in
    let matches = Mil.PairInter (pairs, px) in
    let counts = Mil.GroupAggr (Bat.Count, matches) in
    let defaulted = Mil.LeftOuterJoin (env.dom, counts, Atom.Int 0) in
    Shape.Atomic (Mil.CalcConst (Bat.CmpOp Bat.Gt, defaulted, Atom.Int 0))
  | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Inter (a, b) ->
    let la, ea = as_set "set operation" (compile_env env a) in
    let lb, eb = as_set "set operation" (compile_env env b) in
    let va = as_atomic "set operation" ea and vb = as_atomic "set operation" eb in
    let pa = Mil.Join (Mil.Reverse la, va) in
    let pb = Mil.Join (Mil.Reverse lb, vb) in
    let combined =
      match expr with
      | Expr.Union _ -> Mil.Unique (Mil.Append (pa, pb))
      | Expr.Diff _ -> Mil.PairDiff (Mil.Unique pa, pb)
      | _ -> Mil.PairInter (Mil.Unique pa, pb)
    in
    let base = fresh env in
    Shape.Set
      {
        link = Mil.NumberHead (combined, base);
        elem = Shape.Atomic (Mil.NumberTail (combined, base));
      }
  | Expr.Flat e ->
    let link1, elem = as_set "flatten" (compile_env env e) in
    let link2, elem2 = as_set "flatten (inner)" elem in
    Shape.Set { link = Mil.Join (link2, link1); elem = elem2 }
  | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
    let s1 = operand env "join (left)" left and s2 = operand env "join (right)" right in
    let link', t1, t2, _ = compile_pairs env ~v1 ~v2 ~pred s1 s2 in
    Shape.Set { link = link'; elem = Shape.Tuple [ (l1, t1); (l2, t2) ] }
  | Expr.Semijoin { v1; v2; pred; left; right } ->
    (* each operand is compiled once and shared by every use below: a
       set literal numbers its elements from a fresh oid base per
       compilation, so a second copy would never match the first *)
    let ((l1link, elem1, _) as s1) = operand env "semijoin (left)" left in
    let s2 = operand env "semijoin (right)" right in
    let survivors_left =
      match hash_semijoin env ~v1 ~v2 ~pred s1 s2 with
      | Some survivors -> survivors
      | None ->
        let _, _, _, surviving_pairs = compile_pairs env ~v1 ~v2 ~pred s1 s2 in
        Mil.UniqueHead (Mil.Reverse surviving_pairs)
    in
    Shape.Set
      {
        link = Mil.Semijoin (l1link, survivors_left);
        elem = filter_shape elem1 survivors_left;
      }
  | Expr.Nest { src; key; inner } ->
    if env.dom <> root_dom then fail "nest is only supported at the top level";
    let _, elem = as_set "nest" (compile_env env src) in
    let fields = match elem with Shape.Tuple fs -> fs | _ -> fail "nest: not tuples" in
    let kv =
      match List.assoc_opt key fields with
      | Some (Shape.Atomic b) -> b
      | _ -> fail "nest: key %S is not atomic" key
    in
    let distinct = Mil.Unique (Mil.Mirror (Mil.Reverse kv)) in
    let base = fresh env in
    let gk = Mil.NumberHead (distinct, base) in
    let membership = Mil.Join (kv, Mil.Reverse gk) in
    Shape.Set
      {
        link = Mil.Project (gk, Atom.Oid 0);
        elem =
          Shape.Tuple
            [
              (key, Shape.Atomic gk);
              (inner, Shape.Set { link = membership; elem = Shape.Tuple fields });
            ];
      }
  | Expr.Unnest { src; field } -> (
    let link1, elem = as_set "unnest" (compile_env env src) in
    let fields = match elem with Shape.Tuple fs -> fs | _ -> fail "unnest: not tuples" in
    match List.assoc_opt field fields with
    | Some (Shape.Set { link = link2; elem = inner }) ->
      let others = List.filter (fun (l, _) -> l <> field) fields in
      (* the inner elements become the result elements; other fields
         follow them through link2 (new elem -> old row) *)
      let fenv = flat_env env in
      let rebased_others =
        List.map (fun (l, s) -> (l, rebase_shape fenv s link2)) others
      in
      let inner_fields =
        match inner with
        | Shape.Tuple ifields -> ifields
        | s -> [ (field, s) ]
      in
      Shape.Set
        {
          link = Mil.Join (link2, link1);
          elem = Shape.Tuple (rebased_others @ inner_fields);
        }
    | Some _ -> fail "unnest: field %S is not a flattened set" field
    | None -> fail "unnest: no field %S" field)
  | Expr.ExtOp { op; args } -> (
    match Extension.find_op op with
    | None -> fail "unknown operator %S" op
    | Some (module E : Extension.S) ->
      let arg_tys = List.map (infer env) args in
      let shapes = List.map (compile_env env) args in
      E.op_flatten (flat_env env) ~op ~arg_tys ~raw:args ~args:shapes)

(* [sum] over the set a physical operator's pair result is split into
   (its link and element numbered over one fresh oid range, as an
   operator flattened in this very domain returns them) is one call of
   the operator's summed form, when it declares one for these
   arguments ({!Extension.summed_form}): one sum per context of the
   domain, 0.0 for a context without rows — what the grouped sum and
   the defaulting outer join compute, without the per-element pairs.
   A specialisation, like the equi-join's. *)
and summed env a link elem =
  match (a, link, elem) with
  | ( Bat.Sum,
      Mil.NumberHead ((Mil.Foreign { name; args; meta } as pairs), b),
      Shape.Atomic (Mil.NumberTail (pairs', b')) )
    when env.specialize && b = b' && pairs = pairs' ->
    Option.map
      (fun name -> Mil.Foreign { name; args; meta })
      (Extension.summed_form name ~nargs:(List.length args))
  | _ -> None

(* A compiled set operand of a join or semijoin: (link, elements,
   element type). *)
and operand env what e =
  let link, elem = as_set what (compile_env env e) in
  (link, elem, elem_type env e)

(* The key of one operand, [elem -> key], compiled under that operand's
   own element domain. *)
and compile_key env v (link, elem, tv) key_expr =
  let env' =
    {
      env with
      vars = (v, elem) :: rebase_vars env link;
      tvars = (v, tv) :: env.tvars;
      dom = Mil.Mirror link;
    }
  in
  as_atomic "join key" (compile_env env' key_expr)

(* [Some (kl, kr)] when the conjunct [c] is an equality [a = b] whose
   sides depend on one binder each ([THIS1.k = THIS2.k], either
   orientation) and have the same atomic type: [kl] over [v1], [kr]
   over [v2].  Mixed int/float keys are left to the cross product,
   where [Bat.apply_cmp] promotes numerically; a hash on their raw
   atoms would never match. *)
and equi_key env ~v1 ~v2 (_, _, t1) (_, _, t2) c =
  let depends_only_on v e = List.for_all (fun fv -> fv = v) (Expr.free_vars e) in
  let key_type v tv e = infer { env with tvars = (v, tv) :: env.tvars } e in
  let same_atomic ka kb =
    match (key_type v1 t1 ka, key_type v2 t2 kb) with
    | Types.Atomic x, Types.Atomic y -> x = y
    | _ -> false
  in
  match c with
  | Expr.Binop (Bat.CmpOp Bat.Eq, a, b)
    when depends_only_on v1 a && depends_only_on v2 b && same_atomic a b ->
    Some (a, b)
  | Expr.Binop (Bat.CmpOp Bat.Eq, a, b)
    when depends_only_on v2 a && depends_only_on v1 b && same_atomic b a ->
    Some (b, a)
  | _ -> None

(* A top-level semijoin whose whole predicate is one equi-key
   conjunct needs no pairs: the surviving left elements are those whose
   key occurs among the right keys, one hash probe per element,
   [Reverse (Semijoin (Reverse kl, Reverse kr))] (heads: left elements).
   At the top level every element lives in context @0, so no context
   check is needed either.

   This is exactly the cross-product-and-filter result.  The keys have
   one atomic type, and on same-typed atoms [Bat.semijoin]'s membership
   test agrees with [Bat.apply_cmp Eq]: int and oid keys compare as
   machine ints on both paths; str and bool keys by structural
   equality, which is [compare = 0]; flt keys by [Float.equal], which
   is [Float.compare = 0] (so nan matches nan and -0.0 matches 0.0,
   as [apply_cmp] has it), and [Hashtbl.hash] maps every nan to one
   hash and -0.0 to the hash of 0.0, so equal keys share a bucket.

   Anything else — extra conjuncts, nested contexts, mismatched key
   types, [~specialize:false] — answers [None] and takes the pair path
   of [compile_pairs]. *)
and hash_semijoin env ~v1 ~v2 ~pred s1 s2 =
  if not (env.specialize && env.dom = root_dom) then None
  else
    match equi_key env ~v1 ~v2 s1 s2 pred with
    | None -> None
    | Some (kl_expr, kr_expr) ->
      let kl = compile_key env v1 s1 kl_expr in
      let kr = compile_key env v2 s2 kr_expr in
      Some (Mil.Reverse (Mil.Semijoin (Mil.Reverse kl, Mil.Reverse kr)))

(* Pairs of left x right elements within each context, predicate
   applied; returns (surviving pair link, filtered left elems, filtered
   right elems, surviving pair_l).  Pair oids are fresh.

   When the predicate contains an equi-key conjunct ({!equi_key}),
   candidate pairs come from a hash join on the key columns instead of
   the full cross product — the equi-join specialisation.  The full
   predicate (and, for nested joins, context equality) still filters
   the candidates, so semantics are unchanged. *)
and compile_pairs env ~v1 ~v2 ~pred ((l1link, elem1, t1) as s1) ((l2link, elem2, t2) as s2) =
  let rec conjuncts = function
    | Expr.Binop (Bat.And, a, b) -> conjuncts a @ conjuncts b
    | e -> [ e ]
  in
  let equi =
    if env.specialize then List.find_map (equi_key env ~v1 ~v2 s1 s2) (conjuncts pred)
    else None
  in
  let cross, need_ctx_check =
    match equi with
    | Some (kl_expr, kr_expr) ->
      let kl = compile_key env v1 s1 kl_expr in
      let kr = compile_key env v2 s2 kr_expr in
      (Mil.Join (kl, Mil.Reverse kr), true)
    | None -> (Mil.Join (l1link, Mil.Reverse l2link), false)
  in
  let base = fresh env in
  let pair_l = Mil.NumberHead (cross, base) in
  let pair_r = Mil.NumberTail (cross, base) in
  let fenv = flat_env env in
  let r1 = rebase_shape fenv elem1 pair_l in
  let r2 = rebase_shape fenv elem2 pair_r in
  let pairlink = Mil.Join (pair_l, l1link) in
  let env' =
    {
      env with
      vars = (v1, r1) :: (v2, r2) :: rebase_vars env pairlink;
      tvars = (v1, t1) :: (v2, t2) :: env.tvars;
      dom = Mil.Mirror pair_l;
    }
  in
  let pred_bat = as_atomic "join predicate" (compile_env env' pred) in
  let survivors = Mil.SelectBool pred_bat in
  let survivors =
    if need_ctx_check then begin
      (* keys matched across contexts; keep only same-context pairs *)
      let c1 = Mil.Join (pair_l, l1link) in
      let c2 = Mil.Join (pair_r, l2link) in
      Mil.Semijoin (survivors, Mil.SelectBool (Mil.Calc2 (Bat.CmpOp Bat.Eq, c1, c2)))
    end
    else survivors
  in
  ( Mil.Semijoin (pairlink, survivors),
    filter_shape r1 survivors,
    filter_shape r2 survivors,
    Mil.Semijoin (pair_l, survivors) )

and elem_type env src =
  match infer env src with
  | Types.Set elem -> elem
  | ty -> fail "expected a set, got %s" (Types.to_string ty)

exception Ill_formed of string

let compile ?(specialize = true) ?(check = false) ?(trace = Mirror_util.Trace.null)
    storage expr =
  let shape =
    Mirror_util.Trace.with_span trace "flatten.compile" (fun () ->
        let shape =
          compile_env { storage; vars = []; tvars = []; dom = root_dom; specialize } expr
        in
        Mirror_util.Trace.attr trace "bats" (string_of_int (Shape.count_bats shape));
        shape)
  in
  if check then begin
    let analysis =
      Mirror_util.Trace.with_span trace "flatten.verify" (fun () ->
          let a = Storage.analyze storage shape in
          match Mirror_bat.Milcheck.verify a with
          | Ok () -> a
          | Error ds ->
            raise
              (Ill_formed (String.concat "; " (List.map Mirror_bat.Milcheck.diag_to_string ds))))
    in
    Mirror_util.Trace.with_span trace "flatten.validate" (fun () ->
        match Moacheck.validate storage expr analysis shape with
        | Ok (_ : int) -> ()
        | Error ds ->
          raise
            (Ill_formed (String.concat "; " (List.map Moaprop.diag_to_string ds))))
  end;
  shape
