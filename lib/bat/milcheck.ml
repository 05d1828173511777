(* The one analysis of a MIL plan bundle: a memoised walk computing,
   per distinct node, the envelope (Milprop), the effect signature and
   column provenance, and the row estimate and cell widths.  See
   milcheck.mli for the model.  The effect signatures are derived from
   bat.ml's actual allocation behaviour and must be kept in sync with
   it (Effcheck's sanitizer exists to catch drift). *)

module P = Milprop
module ISet = Set.Make (Int)

type severity = Error | Warning | Hint

type diag = { severity : severity; path : string; op : string; message : string }

type col = Head | Tail

type source = Input of int * col | CatalogCol of string * col

type alias = { sources : source list; maybe_fresh : bool }

type eff = {
  head : alias;
  tail : alias;
  reads : (int * col) list;
  writes : (int * col) list;
  cat_read : string option;
  impure : string option;
  undeclared : bool;
}

type rowbytes = { rb_est : int; rb_max : int option }

type fact = {
  node : Mil.t;
  id : int;
  path : string;
  kids : fact array;
  prop : P.t;
  est : int;
  head_rb : rowbytes;
  tail_rb : rowbytes;
  eff : eff;
  head_orig : ISet.t;
  tail_orig : ISet.t;
  diags : diag list;
}

type foreign = {
  f_arities : int list;
  f_meta_min : int;
  f_result : P.t;
  f_pure : bool;
  f_shares : bool;
  f_writes : bool;
  f_rows : (fact list -> P.card * int) option;
}

type env = { catalog : Catalog.t; foreign : string -> foreign option }

let env ?(foreign = fun _ -> None) catalog = { catalog; foreign }

type t = {
  env : env;
  roots : Mil.t list;
  nodes : fact list;
  table : fact Mil.Tbl.t;
  diags : diag list;
}

let severity_name = function Error -> "error" | Warning -> "warning" | Hint -> "hint"

let pp_diag ppf d =
  Format.fprintf ppf "%s at %s (%s): %s" (severity_name d.severity) d.path d.op d.message

let diag_to_string d = Format.asprintf "%a" pp_diag d

let errors ds = List.filter (fun d -> d.severity = Error) ds

(* {1 Effect signatures} *)

let fresh = { sources = []; maybe_fresh = true }
let shared src = { sources = [ src ]; maybe_fresh = false }
let both_cols n = List.concat (List.init n (fun i -> [ (i, Head); (i, Tail) ]))

let signature env plan =
  let pure =
    {
      head = fresh;
      tail = fresh;
      reads = [];
      writes = [];
      cat_read = None;
      impure = None;
      undeclared = false;
    }
  in
  match plan with
  | Mil.Get name ->
    {
      pure with
      head = shared (CatalogCol (name, Head));
      tail = shared (CatalogCol (name, Tail));
      cat_read = Some name;
    }
  | Mil.Lit _ -> pure
  | Mil.Reverse _ ->
    { pure with head = shared (Input (0, Tail)); tail = shared (Input (0, Head)) }
  | Mil.Mirror _ ->
    { pure with head = shared (Input (0, Head)); tail = shared (Input (0, Head)) }
  | Mil.Mark _ -> { pure with head = shared (Input (0, Head)) }
  | Mil.NumberHead _ -> { pure with tail = shared (Input (0, Head)) }
  | Mil.NumberTail _ -> { pure with tail = shared (Input (0, Tail)) }
  | Mil.Project _ -> { pure with head = shared (Input (0, Head)) }
  | Mil.Calc1 _ | Mil.CalcConst _ | Mil.ConstCalc _ ->
    { pure with head = shared (Input (0, Head)); reads = [ (0, Tail) ] }
  | Mil.Calc2 _ ->
    (* The row-aligned fast path keeps the left head; the generic
       path rebuilds both columns. *)
    {
      pure with
      head = { sources = [ Input (0, Head) ]; maybe_fresh = true };
      reads = both_cols 2;
    }
  | Mil.SelectCmp _ | Mil.SelectRange _ | Mil.SelectBool _
  | Mil.Unique _ | Mil.UniqueHead _
  | Mil.GroupAggr _
  | Mil.SortTail _ | Mil.Slice _ | Mil.TopN _ ->
    { pure with reads = [ (0, Head); (0, Tail) ] }
  | Mil.AggrAll _ -> { pure with reads = [ (0, Tail) ] }
  | Mil.Semijoin _ | Mil.Antijoin _ ->
    (* Gathers both columns of the left side, probes right heads. *)
    { pure with reads = [ (0, Head); (0, Tail); (1, Head) ] }
  | Mil.Join _ | Mil.LeftOuterJoin _
  | Mil.Kunion _ | Mil.PairUnion _ | Mil.PairDiff _ | Mil.PairInter _
  | Mil.Append _ | Mil.GroupRank _ ->
    { pure with reads = both_cols 2 }
  | Mil.Foreign { name; args; _ } ->
    let n = List.length args in
    let share_all =
      { sources = List.map (fun (i, c) -> Input (i, c)) (both_cols n); maybe_fresh = true }
    in
    (* an undeclared operator is the worst case: it aliases and mutates
       everything and has external effects *)
    let shares, writes, pure =
      match env.foreign name with
      | Some f -> (f.f_shares, f.f_writes, f.f_pure)
      | None -> (true, true, false)
    in
    {
      head = (if shares then share_all else fresh);
      tail = (if shares then share_all else fresh);
      reads = both_cols n;
      writes = (if writes then both_cols n else []);
      cat_read = None;
      impure = (if pure then None else Some name);
      undeclared = Option.is_none (env.foreign name);
    }

(* {1 Cell widths}

   Every cell costs its 8-byte slot; string cells add their payload,
   tracked through the constructors (subsets preserve it,
   concatenation sums it, unions take the max). *)

let opt_map2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let fixed_rb = { rb_est = 8; rb_max = Some 8 }
let unknown_rb = { rb_est = 8; rb_max = None }

let atom_rb = function
  | Atom.Str s -> { rb_est = 8 + String.length s; rb_max = Some (8 + String.length s) }
  | _ -> fixed_rb

(* Type-directed width when no provenance is available: strings (or an
   unknown type, which could be a string) are unbounded. *)
let rb_of_ty = function Some Atom.TStr | None -> unknown_rb | Some _ -> fixed_rb

(* Exact widths of a materialised column. *)
let col_rb col =
  match col with
  | Column.S a ->
    let n = Array.length a in
    let total = Column.bytes col in
    let mx = Array.fold_left (fun m s -> max m (8 + String.length s)) 8 a in
    { rb_est = (if n = 0 then 8 else (total + n - 1) / n); rb_max = Some mx }
  | _ -> fixed_rb

let rb_union a b = { rb_est = max a.rb_est b.rb_est; rb_max = opt_map2 max a.rb_max b.rb_max }

(* String concatenation: payloads add, the 8-byte slot is counted once. *)
let rb_concat a b =
  {
    rb_est = a.rb_est + b.rb_est - 8;
    rb_max = opt_map2 (fun x y -> P.sadd x y - 8) a.rb_max b.rb_max;
  }

(* Element-wise binary results: fixed width unless the result is a
   string — concatenation for Add, either operand for min/max. *)
let calc_tail op l r tty =
  match tty with
  | Some Atom.TStr -> (
    match op with
    | Bat.Add -> rb_concat l r
    | Bat.MinOp | Bat.MaxOp -> rb_union l r
    | _ -> unknown_rb)
  | Some _ -> fixed_rb
  | None -> unknown_rb

(* Aggregate results: min/max return a member of the group; sum over
   strings concatenates up to every input row's payload into one cell. *)
let aggr_tail op (c : fact) tty =
  match (op, tty) with
  | Bat.Sum, Some Atom.TStr ->
    {
      rb_est = c.tail_rb.rb_est;
      rb_max =
        opt_map2 (fun rhi m -> P.sadd 8 (P.smul rhi (m - 8))) c.prop.P.card.P.hi c.tail_rb.rb_max;
    }
  | (Bat.Min | Bat.Max), _ -> c.tail_rb
  | _, (Some Atom.TStr | None) -> unknown_rb
  | _, Some _ -> fixed_rb

(* {1 Envelope rules} *)

let numeric = function Atom.TInt | Atom.TFlt -> true | _ -> false

(* (key, dense, sorted) of an atom list, mirroring {!Milprop.of_bat}
   for literal plans. *)
let atom_facts ty atoms =
  let key = ref true and sorted = ref true and dense = ref (ty = Atom.TOid) in
  let tbl = Hashtbl.create 16 in
  let prev = ref None in
  List.iter
    (fun a ->
      (match !prev with
      | Some p ->
        if Atom.compare p a > 0 then sorted := false;
        (match (p, a) with
        | Atom.Oid x, Atom.Oid y when y = x + 1 -> ()
        | _ -> dense := false)
      | None -> ());
      if Hashtbl.mem tbl a then key := false else Hashtbl.add tbl a ();
      prev := Some a)
    atoms;
  (!key, !dense, !sorted)

(* Result type of an element-wise binary operator over (possibly
   unknown) operand types, emitting diagnostics for combinations the
   kernel rejects at runtime. *)
let binop_ty ~err ~warn op lty rty =
  let bad l r =
    err
      (Printf.sprintf "operator %s cannot combine %s and %s tails" (Mil.binop_name op)
         (Atom.ty_name l) (Atom.ty_name r))
  in
  match op with
  | Bat.CmpOp _ -> Some Atom.TBool
  | Bat.And | Bat.Or ->
    (match lty with Some t when t <> Atom.TBool -> bad t (Option.value ~default:t rty) | _ -> ());
    (match rty with
    | Some t when t <> Atom.TBool && (match lty with Some l -> l = Atom.TBool | None -> true) ->
      bad (Option.value ~default:t lty) t
    | _ -> ());
    Some Atom.TBool
  | Bat.Pow -> (
    match (lty, rty) with
    | Some l, Some r when not (numeric l && numeric r) -> bad l r; None
    | _ -> Some Atom.TFlt)
  | Bat.Add -> (
    match (lty, rty) with
    | Some Atom.TInt, Some Atom.TInt -> Some Atom.TInt
    | Some Atom.TStr, Some Atom.TStr -> Some Atom.TStr
    | Some l, Some r when numeric l && numeric r -> Some Atom.TFlt
    | Some l, Some r -> bad l r; None
    | _ -> None)
  | Bat.Sub | Bat.Mul | Bat.Div -> (
    match (lty, rty) with
    | Some Atom.TInt, Some Atom.TInt -> Some Atom.TInt
    | Some l, Some r when numeric l && numeric r -> Some Atom.TFlt
    | Some l, Some r -> bad l r; None
    | _ -> None)
  | Bat.MinOp | Bat.MaxOp -> (
    match (lty, rty) with
    | Some l, Some r when l = r -> Some l
    | Some l, Some r ->
      warn
        (Printf.sprintf
           "operator %s over mixed %s/%s tails returns whichever operand compares smaller \
            — the result column type is not statically determined"
           (Mil.binop_name op) (Atom.ty_name l) (Atom.ty_name r));
      None
    | _ -> None)

let unop_ty ~err op ty =
  (match (op, ty) with
  | Bat.Not, Some t when t <> Atom.TBool ->
    err (Printf.sprintf "operator not requires a bool tail, got %s" (Atom.ty_name t))
  | (Bat.Neg | Bat.Abs | Bat.Log | Bat.Exp | Bat.Sqrt | Bat.ToFlt), Some t when not (numeric t)
    ->
    err
      (Printf.sprintf "operator %s requires a numeric tail, got %s" (Mil.unop_name op)
         (Atom.ty_name t))
  | _ -> ());
  match op with
  | Bat.Not -> Some Atom.TBool
  | Bat.Neg | Bat.Abs -> ty
  | Bat.Log | Bat.Exp | Bat.Sqrt | Bat.ToFlt -> Some Atom.TFlt

let aggr_ty ~err op ty =
  (match (op, ty) with
  | (Bat.Sum | Bat.Prod | Bat.Avg), Some t when not (numeric t) ->
    if not (op = Bat.Sum && t = Atom.TStr) then
      err
        (Printf.sprintf "aggregate %s requires numeric tails, got %s" (Mil.aggr_name op)
           (Atom.ty_name t))
  | _ -> ());
  match op with
  | Bat.Count -> Some Atom.TInt
  | Bat.Avg -> Some Atom.TFlt
  | Bat.Sum | Bat.Prod | Bat.Min | Bat.Max -> ty

(* A subset of the input rows, input order preserved: key and
   sortedness flags survive, density does not (unless contiguous). *)
let subset ?(contiguous = false) p card =
  {
    p with
    P.card;
    dense_head = p.P.dense_head && contiguous;
    dense_tail = p.P.dense_tail && contiguous;
  }

let reset_tail p tty =
  { p with P.tty; tail_key = false; dense_tail = false; sorted_tail = false }

let hi_at_most p n = match p.P.card.P.hi with Some h -> h <= n | None -> false


let pick a b = match a with Some _ -> a | None -> b

let union_types ~err (l : P.t) (r : P.t) =
  let check what a b =
    match (a, b) with
    | Some a, Some b when a <> b ->
      err
        (Printf.sprintf "%s types %s and %s cannot be combined" what (Atom.ty_name a)
           (Atom.ty_name b))
    | _ -> ()
  in
  check "head" l.P.hty r.P.hty;
  check "tail" l.P.tty r.P.tty

let pair_mismatch (l : P.t) (r : P.t) =
  (match (l.P.hty, r.P.hty) with Some a, Some b -> a <> b | _ -> false)
  || match (l.P.tty, r.P.tty) with Some a, Some b -> a <> b | _ -> false

let at_least_one (c : P.card) = { c with P.lo = (if c.P.lo > 0 then 1 else 0) }

(* One rule per constructor: the node's envelope (reporting verifier
   diagnostics through [emit]) together with its row estimate and its
   head/tail cell widths, from the children's facts.  Estimates follow
   per-constructor selectivity rules and are clamped into the interval
   by the caller. *)
let rule env ~emit plan (kids : fact array) =
  let err fmt = Printf.ksprintf (emit Error) fmt
  and warn fmt = Printf.ksprintf (emit Warning) fmt in
  let err_s = emit Error and warn_s = emit Warning in
  let binop_ty op l r = binop_ty ~err:err_s ~warn:warn_s op l r in
  let kid i = kids.(i) in
  (* the common shape: one input, both widths carried over *)
  let keep c prop est = (prop, est, c.head_rb, c.tail_rb) in
  match plan with
  | Mil.Get name -> (
    match Catalog.find env.catalog name with
    | Some b -> (P.of_bat b, Bat.count b, col_rb (Bat.head b), col_rb (Bat.tail b))
    | None ->
      err "unbound catalog name %S" name;
      (P.unknown, 0, unknown_rb, unknown_rb))
  | Mil.Lit { hty; tty; pairs } ->
    List.iteri
      (fun i (h, t) ->
        if Atom.type_of h <> hty then
          err "literal row %d: head %s is not of declared type %s" i (Atom.to_string h)
            (Atom.ty_name hty);
        if Atom.type_of t <> tty then
          err "literal row %d: tail %s is not of declared type %s" i (Atom.to_string t)
            (Atom.ty_name tty))
      pairs;
    let hkey, hdense, hsorted = atom_facts hty (List.map fst pairs) in
    let tkey, tdense, tsorted = atom_facts tty (List.map snd pairs) in
    let width side =
      List.fold_left (fun acc pair -> rb_union acc (atom_rb (side pair))) fixed_rb pairs
    in
    let n = List.length pairs in
    ( {
        P.hty = Some hty;
        tty = Some tty;
        head_key = hkey;
        tail_key = tkey;
        dense_head = hdense;
        dense_tail = tdense;
        sorted_head = hsorted;
        sorted_tail = tsorted;
        card = P.exactly n;
      },
      n,
      width fst,
      width snd )
  | Mil.Reverse _ ->
    let c = kid 0 in
    (P.swap c.prop, c.est, c.tail_rb, c.head_rb)
  | Mil.Mirror _ ->
    let c = kid 0 and p = (kid 0).prop in
    ( {
        p with
        tty = p.hty;
        tail_key = p.head_key;
        dense_tail = p.dense_head;
        sorted_tail = p.sorted_head;
      },
      c.est,
      c.head_rb,
      c.head_rb )
  | Mil.Mark _ ->
    let c = kid 0 in
    ( { c.prop with tty = Some Atom.TOid; tail_key = true; dense_tail = true; sorted_tail = true },
      c.est,
      c.head_rb,
      fixed_rb )
  | Mil.NumberHead _ ->
    let c = kid 0 and p = (kid 0).prop in
    ( {
        P.hty = Some Atom.TOid;
        tty = p.hty;
        head_key = true;
        dense_head = true;
        sorted_head = true;
        tail_key = p.head_key;
        dense_tail = p.dense_head;
        sorted_tail = p.sorted_head;
        card = p.card;
      },
      c.est,
      fixed_rb,
      c.head_rb )
  | Mil.NumberTail _ ->
    let c = kid 0 and p = (kid 0).prop in
    ( {
        P.hty = Some Atom.TOid;
        tty = p.tty;
        head_key = true;
        dense_head = true;
        sorted_head = true;
        tail_key = p.tail_key;
        dense_tail = p.dense_tail;
        sorted_tail = p.sorted_tail;
        card = p.card;
      },
      c.est,
      fixed_rb,
      c.tail_rb )
  | Mil.Project (_, a) ->
    let c = kid 0 in
    ( {
        c.prop with
        tty = Some (Atom.type_of a);
        tail_key = hi_at_most c.prop 1;
        dense_tail = false;
        sorted_tail = true;
      },
      c.est,
      c.head_rb,
      atom_rb a )
  | Mil.Calc1 (op, _) ->
    (* every unary result is fixed width (not/neg/abs/log/…) *)
    let c = kid 0 in
    (reset_tail c.prop (unop_ty ~err:err_s op c.prop.tty), c.est, c.head_rb, fixed_rb)
  | Mil.CalcConst (op, _, a) ->
    let c = kid 0 in
    (match (op, a) with
    | Bat.Div, Atom.Int 0 -> err "division by integer constant zero always raises"
    | Bat.Div, Atom.Flt 0.0 -> warn "division by float constant zero yields infinities"
    | _ -> ());
    let p = reset_tail c.prop (binop_ty op c.prop.tty (Some (Atom.type_of a))) in
    (p, c.est, c.head_rb, calc_tail op c.tail_rb (atom_rb a) p.tty)
  | Mil.ConstCalc (op, a, _) ->
    let c = kid 0 in
    let p = reset_tail c.prop (binop_ty op (Some (Atom.type_of a)) c.prop.tty) in
    (p, c.est, c.head_rb, calc_tail op (atom_rb a) c.tail_rb p.tty)
  | Mil.Calc2 (op, _, _) ->
    let l = kid 0 and r = kid 1 in
    (match (l.prop.hty, r.prop.hty) with
    | Some a, Some b when a <> b ->
      err "misaligned head types %s vs %s — rows can never pair up" (Atom.ty_name a)
        (Atom.ty_name b)
    | _ -> ());
    (* rows pair up by head: at most one per left row, none without a right side *)
    let card = if P.is_empty r.prop then P.exactly 0 else P.card_upto l.prop.card in
    let p =
      { (reset_tail l.prop (binop_ty op l.prop.tty r.prop.tty)) with card; dense_head = false }
    in
    (p, min l.est r.est, l.head_rb, calc_tail op l.tail_rb r.tail_rb p.tty)
  | Mil.SelectCmp (_, cmp, a) ->
    let c = kid 0 in
    let cp = c.prop and aty = Atom.type_of a in
    let mismatched = match cp.tty with Some t -> t <> aty | None -> false in
    if mismatched then
      warn "selection compares %s tails against a %s constant — statically trivial"
        (match cp.tty with Some t -> Atom.ty_name t | None -> "?")
        (Atom.ty_name aty);
    let card = if mismatched && cmp = Bat.Eq then P.exactly 0 else P.card_upto cp.card in
    let s = subset cp card in
    let est =
      match cmp with
      | Bat.Eq -> c.est / 10
      | Bat.Ne -> c.est * 9 / 10
      | Bat.Lt | Bat.Le | Bat.Gt | Bat.Ge -> c.est / 3
    in
    keep c (if cmp = Bat.Eq && not mismatched then { s with sorted_tail = true } else s) est
  | Mil.SelectRange (_, lo, hi) ->
    let c = kid 0 in
    (match c.prop.tty with
    | Some t when t <> Atom.type_of lo || t <> Atom.type_of hi ->
      warn "range bounds %s..%s do not match the %s tail" (Atom.to_string lo)
        (Atom.to_string hi) (Atom.ty_name t)
    | _ -> ());
    let empty = Atom.compare lo hi > 0 in
    if empty then warn "range lower bound exceeds upper bound — selection is empty";
    keep c (subset c.prop (if empty then P.exactly 0 else P.card_upto c.prop.card)) (c.est / 4)
  | Mil.SelectBool _ ->
    let c = kid 0 in
    (match c.prop.tty with
    | Some t when t <> Atom.TBool ->
      err "select_bool requires a bool tail, got %s" (Atom.ty_name t)
    | _ -> ());
    keep c { (subset c.prop (P.card_upto c.prop.card)) with sorted_tail = true } (c.est / 2)
  | Mil.Join _ ->
    let l = kid 0 and r = kid 1 in
    (match (l.prop.tty, r.prop.hty) with
    | Some a, Some b when a <> b ->
      err "join tail type %s does not match head type %s" (Atom.ty_name a) (Atom.ty_name b)
    | _ -> ());
    (* a key right head matches each left row at most once *)
    let key = r.prop.head_key in
    ( {
        P.unknown with
        hty = l.prop.hty;
        tty = r.prop.tty;
        head_key = l.prop.head_key && key;
        sorted_head = l.prop.sorted_head;
        card = (if key then P.card_upto l.prop.card else P.card_mul l.prop.card r.prop.card);
      },
      (if key then l.est else P.smul l.est r.est / max 1 (max l.est r.est)),
      l.head_rb,
      r.tail_rb )
  | Mil.LeftOuterJoin (_, _, d) ->
    let l = kid 0 and r = kid 1 in
    let cl = l.prop and cr = r.prop in
    (match (cl.tty, cr.hty) with
    | Some a, Some b when a <> b ->
      warn "outer-join tail type %s does not match head type %s — every row defaults"
        (Atom.ty_name a) (Atom.ty_name b)
    | _ -> ());
    (match cr.tty with
    | Some t when t <> Atom.type_of d ->
      err "default %s does not match the right tail type %s" (Atom.to_string d)
        (Atom.ty_name t)
    | _ -> ());
    let tty = Some (Atom.type_of d) in
    let p =
      if cr.head_key || P.is_empty cr then reset_tail cl tty
      else
        {
          P.unknown with
          hty = cl.hty;
          tty;
          sorted_head = cl.sorted_head;
          card = { P.lo = cl.card.P.lo; hi = (P.card_mul cl.card cr.card).P.hi };
        }
    in
    (p, l.est, l.head_rb, rb_union r.tail_rb (atom_rb d))
  | Mil.Semijoin _ ->
    let l = kid 0 and r = kid 1 in
    let mismatched =
      match (l.prop.hty, r.prop.hty) with Some a, Some b -> a <> b | _ -> false
    in
    if mismatched then warn "semijoin head types differ — no row can survive";
    let empty = mismatched || P.is_empty r.prop in
    keep l (subset l.prop (if empty then P.exactly 0 else P.card_upto l.prop.card)) (l.est / 2)
  | Mil.Antijoin _ ->
    let l = kid 0 and r = kid 1 in
    (match (l.prop.hty, r.prop.hty) with
    | Some a, Some b when a <> b -> warn "antijoin head types differ — every row survives"
    | _ -> ());
    keep l
      (if P.is_empty r.prop then l.prop else subset l.prop (P.card_upto l.prop.card))
      (l.est / 2)
  | Mil.PairDiff _ ->
    let l = kid 0 and r = kid 1 in
    if pair_mismatch l.prop r.prop then
      warn "pair types differ — the difference keeps every row";
    keep l (subset l.prop (P.card_upto l.prop.card)) (l.est / 2)
  | Mil.PairInter _ ->
    let l = kid 0 and r = kid 1 in
    let mismatched = pair_mismatch l.prop r.prop in
    if mismatched then warn "pair types differ — the intersection is empty";
    let empty = mismatched || P.is_empty r.prop in
    keep l (subset l.prop (if empty then P.exactly 0 else P.card_upto l.prop.card)) (l.est / 2)
  | Mil.Kunion _ | Mil.PairUnion _ | Mil.Append _ ->
    let l = kid 0 and r = kid 1 in
    let cl = l.prop and cr = r.prop in
    union_types ~err:err_s cl cr;
    let sum = P.card_add cl.card cr.card in
    let p = { P.unknown with hty = pick cl.hty cr.hty; tty = pick cl.tty cr.tty } in
    let p, est =
      match plan with
      | Mil.Kunion _ ->
        let card = { sum with P.lo = cl.card.P.lo } in
        ({ p with head_key = cl.head_key && cr.head_key; card }, P.sadd l.est (r.est / 2))
      | Mil.PairUnion _ ->
        let lo = if cl.card.P.lo > 0 || cr.card.P.lo > 0 then 1 else 0 in
        ({ p with card = { sum with P.lo } }, P.sadd l.est (r.est / 2))
      | _ -> ({ p with card = sum }, P.sadd l.est r.est)
    in
    (p, est, rb_union l.head_rb r.head_rb, rb_union l.tail_rb r.tail_rb)
  | Mil.Unique _ ->
    let c = kid 0 in
    keep c (subset c.prop (at_least_one c.prop.card)) (c.est / 2)
  | Mil.UniqueHead _ ->
    let c = kid 0 in
    keep c { (subset c.prop (at_least_one c.prop.card)) with head_key = true } (c.est / 2)
  | Mil.GroupAggr (op, _) ->
    let c = kid 0 in
    let tty = aggr_ty ~err:err_s op c.prop.tty in
    ( {
        P.unknown with
        hty = c.prop.hty;
        tty;
        head_key = true;
        dense_head = c.prop.dense_head;
        sorted_head = c.prop.sorted_head;
        card = at_least_one c.prop.card;
      },
      c.est / 2,
      c.head_rb,
      aggr_tail op c tty )
  | Mil.AggrAll (op, _) ->
    let c = kid 0 in
    let tty = aggr_ty ~err:err_s op c.prop.tty in
    if
      c.prop.card.P.lo = 0
      && (op = Bat.Min || op = Bat.Max || op = Bat.Avg
         || (op = Bat.Sum && c.prop.tty = Some Atom.TStr))
    then warn "aggregate %s over a possibly-empty input raises at runtime" (Mil.aggr_name op);
    ( {
        P.hty = Some Atom.TOid;
        tty;
        head_key = true;
        tail_key = true;
        dense_head = true;
        dense_tail = false;
        sorted_head = true;
        sorted_tail = true;
        card = P.exactly 1;
      },
      1,
      fixed_rb,
      aggr_tail op c tty )
  | Mil.GroupRank { limit; _ } ->
    let l = kid 0 and k = kid 1 in
    (match (l.prop.hty, k.prop.hty) with
    | Some a, Some b when a <> b ->
      warn "group_rank link heads (%s) never match key heads (%s) — all elements rank last"
        (Atom.ty_name a) (Atom.ty_name b)
    | _ -> ());
    (* a limit of k keeps min(k, size) rows of every group, and the sum
       over the groups is at least min(k, all rows); the estimate
       assumes one group *)
    let card, est =
      match limit with
      | None -> (l.prop.card, l.est)
      | Some k ->
        let k = max 0 k in
        let hi = if k = 0 then Some 0 else l.prop.card.P.hi in
        ({ P.lo = min k l.prop.card.P.lo; hi }, min k l.est)
    in
    ( {
        P.unknown with
        hty = l.prop.hty;
        tty = Some Atom.TInt;
        head_key = l.prop.head_key;
        card;
      },
      est,
      l.head_rb,
      fixed_rb )
  | Mil.SortTail (_, desc) ->
    let c = kid 0 in
    keep c
      {
        c.prop with
        dense_head = false;
        sorted_head = false;
        dense_tail = c.prop.dense_tail && not desc;
        sorted_tail = not desc;
      }
      c.est
  | Mil.Slice (_, pos, len) ->
    let c = kid 0 in
    let pos = max 0 pos and len = max 0 len in
    let card =
      {
        P.lo = max 0 (min len (c.prop.card.P.lo - pos));
        hi =
          Some (match c.prop.card.P.hi with Some h -> max 0 (min len (h - pos)) | None -> len);
      }
    in
    keep c (subset ~contiguous:true c.prop card) c.est
  | Mil.TopN (_, n, desc) ->
    let c = kid 0 in
    keep c
      {
        (subset c.prop (P.card_min_hi c.prop.card (max 0 n))) with
        dense_tail = c.prop.dense_tail && not desc;
        sorted_tail = not desc;
        sorted_head = false;
      }
      c.est
  | Mil.Foreign { name; args; meta } -> (
    match env.foreign name with
    | None ->
      err "physical operator %S has no registered signature" name;
      (P.unknown, 0, unknown_rb, unknown_rb)
    | Some f ->
      if not (List.mem (List.length args) f.f_arities) then
        err "%S expects %s plan arguments, got %d" name
          (String.concat " or " (List.map string_of_int f.f_arities))
          (List.length args);
      if List.length meta < f.f_meta_min then
        err "%S expects at least %d meta strings, got %d" name f.f_meta_min
          (List.length meta);
      let card, est =
        match f.f_rows with Some rows -> rows (Array.to_list kids) | None -> (P.any_card, 0)
      in
      let r = f.f_result in
      ({ r with card = P.card_meet r.card card }, est, rb_of_ty r.hty, rb_of_ty r.tty))

(* {1 The walk} *)

let slot_names = function
  | Mil.GroupRank _ -> [ ":link"; ":key" ]
  | Mil.Foreign { args; _ } -> List.mapi (fun i _ -> ":" ^ string_of_int i) args
  | p -> ( match Mil.children p with [ _ ] -> [ "" ] | [ _; _ ] -> [ ":l"; ":r" ] | _ -> [])

let kid_paths path plan =
  List.map2
    (fun slot k -> (path ^ slot ^ "/" ^ Mil.op_name k, k))
    (slot_names plan) (Mil.children plan)

let clamp (c : P.card) est =
  let est = max c.P.lo est in
  match c.P.hi with Some h -> min h est | None -> est

type walk = {
  w_env : env;
  w_table : fact Mil.Tbl.t;
  mutable w_nodes : fact list;  (* reverse post-order *)
  w_catalog : (string * col, int) Hashtbl.t;  (* catalog column -> negative origin *)
}

let origin (k : fact) = function Head -> k.head_orig | Tail -> k.tail_orig

let rec visit w path plan =
  match Mil.Tbl.find_opt w.w_table plan with
  | Some f -> f
  | None ->
    let kids = Array.of_list (List.map (fun (p, k) -> visit w p k) (kid_paths path plan)) in
    let diags = ref [] in
    let emit severity message =
      diags := { severity; path; op = Mil.op_name plan; message } :: !diags
    in
    let prop, est, head_rb, tail_rb = rule w.w_env ~emit plan kids in
    let prop = P.normalize prop in
    let eff = signature w.w_env plan in
    let id = Mil.Tbl.length w.w_table in
    (* Origins are allocation sites: [2 * id + bit] for this node's own
       fresh columns, negative numbers for catalog columns (which the
       store itself always holds). *)
    let resolve al bit =
      List.fold_left
        (fun acc -> function
          | Input (i, c) -> ISet.union acc (origin kids.(i) c)
          | CatalogCol (name, c) ->
            let o =
              match Hashtbl.find_opt w.w_catalog (name, c) with
              | Some o -> o
              | None ->
                let o = -(Hashtbl.length w.w_catalog + 1) in
                Hashtbl.add w.w_catalog (name, c) o;
                o
            in
            ISet.add o acc)
        (if al.maybe_fresh then ISet.singleton ((2 * id) + bit) else ISet.empty)
        al.sources
    in
    let f =
      {
        node = plan;
        id;
        path;
        kids;
        prop;
        est = clamp prop.P.card est;
        head_rb;
        tail_rb;
        eff;
        head_orig = resolve eff.head 0;
        tail_orig = resolve eff.tail 1;
        diags = List.rev !diags;
      }
    in
    Mil.Tbl.add w.w_table plan f;
    w.w_nodes <- f :: w.w_nodes;
    f

let analyze env roots =
  let w =
    { w_env = env; w_table = Mil.Tbl.create 64; w_nodes = []; w_catalog = Hashtbl.create 8 }
  in
  List.iter (fun r -> ignore (visit w (Mil.op_name r) r)) roots;
  let nodes = List.rev w.w_nodes in
  let diags = List.concat_map (fun (f : fact) -> f.diags) nodes in
  { env; roots; nodes; table = w.w_table; diags }

let prop t plan =
  match Mil.Tbl.find_opt t.table plan with Some f -> f.prop | None -> P.unknown

let reachable root =
  let seen = Hashtbl.create 64 and acc = ref [] in
  let rec go f =
    if not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      Array.iter go f.kids;
      acc := f :: !acc
    end
  in
  go root;
  List.rev !acc

let verify t = match errors t.diags with [] -> Ok () | errs -> Error errs

(* {1 Lint} *)

let lint t =
  let smells = ref [] in
  let add severity f fmt =
    Printf.ksprintf
      (fun message ->
        smells := { severity; path = f.path; op = Mil.op_name f.node; message } :: !smells)
      fmt
  in
  let reported = Hashtbl.create 8 in
  let dead f =
    if P.is_empty f.prop && not (Hashtbl.mem reported f.id) then begin
      Hashtbl.add reported f.id ();
      add Warning f "statically empty — the subplan is dead"
    end
  in
  List.iter (fun r -> dead (Mil.Tbl.find t.table r)) t.roots;
  List.iter
    (fun f ->
      if not (P.is_empty f.prop) then Array.iter dead f.kids;
      let hint fmt = add Hint f fmt in
      match f.node with
      | Mil.Reverse (Mil.Reverse _) -> hint "reverse of reverse cancels out"
      | Mil.Mirror (Mil.Mirror _) | Mil.Reverse (Mil.Mirror _)
      | Mil.Mirror (Mil.Reverse (Mil.Mirror _)) ->
        hint "mirror chain collapses to a single mirror"
      | Mil.Unique (Mil.Unique _) -> hint "unique of unique is redundant"
      | Mil.Semijoin (p, q) when p = q -> hint "self-semijoin is the identity"
      | Mil.Kunion (p, q) when p = q -> hint "self-kunion is the identity"
      | Mil.Append (_, Mil.Lit { pairs = []; _ }) | Mil.Append (Mil.Lit { pairs = []; _ }, _) ->
        hint "appending an empty literal is the identity"
      | Mil.Slice (Mil.SortTail _, 0, n) -> hint "slice[0,%d] of sort_tail should fuse to top%d" n n
      | Mil.SelectCmp (Mil.Project (_, a), c, b) ->
        if Bat.apply_cmp c a b then
          hint "selection over a constant projection is always true — drop it"
        else
          add Warning f
            "selection over a constant projection is always false — the subplan is dead"
      | Mil.SelectBool (Mil.Project (_, Atom.Bool v)) ->
        if v then hint "boolean selection over a true constant is always true — drop it"
        else
          add Warning f
            "boolean selection over a false constant is always false — the subplan is dead"
      | Mil.SelectRange (Mil.Project (_, a), lo, hi) ->
        if Atom.compare lo a <= 0 && Atom.compare a hi <= 0 then
          hint "range selection over a constant projection is always true — drop it"
        else
          add Warning f
            "range selection over a constant projection is always false — the subplan is dead"
      | _ -> ())
    t.nodes;
  t.diags @ List.rev !smells

(* {1 Checked execution} *)

let exec_checked t session plan =
  let b = Mil.exec session plan in
  (match errors t.diags with
  | [] -> ()
  | e :: _ -> failwith (Printf.sprintf "Milcheck: ill-formed plan executed: %s" (diag_to_string e)));
  let inferred =
    match Mil.Tbl.find_opt t.table plan with
    | Some f -> f.prop
    | None ->
      failwith
        (Printf.sprintf "Milcheck: %s is not a node of the analysed bundle" (Mil.op_name plan))
  in
  (match P.envelope_ok ~inferred ~actual:(P.of_bat b) with
  | Ok () -> ()
  | Error msg ->
    failwith
      (Printf.sprintf "Milcheck: result of %s escapes the inferred envelope %s: %s"
         (Mil.op_name plan) (P.to_string inferred) msg));
  b
