let rules fired plan =
  let fire p =
    incr fired;
    p
  in
  match plan with
  | Mil.Reverse (Mil.Reverse p) -> fire p
  | Mil.Mirror (Mil.Mirror p) -> fire (Mil.Mirror p)
  | Mil.Reverse (Mil.Mirror p) -> fire (Mil.Mirror p)
  | Mil.Mirror (Mil.Reverse (Mil.Mirror p)) -> fire (Mil.Mirror p)
  | Mil.Semijoin (Mil.Semijoin (p, s1), s2) when s1 = s2 -> fire (Mil.Semijoin (p, s1))
  | Mil.Semijoin (p, q) when p = q -> fire p
  | Mil.Kunion (p, q) when p = q -> fire p
  | Mil.Unique (Mil.Unique p) -> fire (Mil.Unique p)
  | Mil.Append (p, Mil.Lit { pairs = []; _ }) -> fire p
  | Mil.Slice (Mil.SortTail (p, desc), 0, n) -> fire (Mil.TopN (p, n, desc))
  (* [take]'s cut of a ranked list: the ranks below k are exactly what a
     group_rank limited to k keeps, in the same rows and order. *)
  | Mil.SelectCmp (Mil.GroupRank { link; key; desc; limit }, Bat.Lt, Atom.Int k) ->
    let limit = Some (match limit with Some l -> min l k | None -> k) in
    fire (Mil.GroupRank { link; key; desc; limit })
  (* A pair BAT X split into a set's link and elem over one fresh oid
     range (getBL's result) and joined back, as every aggregate over
     the set does: [reverse (number_head X b)] is (head_i, b+i) and
     [number_tail X b] is (b+i, tail_i).  The join's right head is the
     dense column b, b+1, …, so the join is positional: left row i
     meets right row i and no other, and the result is
     (head_i, tail_i) in row order — X itself, row for row, with X's
     column types. *)
  | Mil.Join (Mil.Reverse (Mil.NumberHead (x, b)), Mil.NumberTail (x', b'))
    when b = b' && x = x' ->
    fire x
  | Mil.CalcConst (op, Mil.Lit { hty; tty = _; pairs }, a) -> (
    match
      List.map (fun (h, t) -> (h, Bat.apply_binop op t a)) pairs
    with
    | [] -> plan
    | (_, t0) :: _ as folded ->
      fire (Mil.Lit { hty; tty = Atom.type_of t0; pairs = folded })
    | exception (Invalid_argument _ | Division_by_zero) -> plan)
  | p -> p

let rec pass fired plan =
  let descend p = pass fired p in
  let p =
    match plan with
    | Mil.Get _ | Mil.Lit _ -> plan
    | Mil.Reverse p -> Mil.Reverse (descend p)
    | Mil.Mirror p -> Mil.Mirror (descend p)
    | Mil.Mark (p, b) -> Mil.Mark (descend p, b)
    | Mil.NumberHead (p, b) -> Mil.NumberHead (descend p, b)
    | Mil.NumberTail (p, b) -> Mil.NumberTail (descend p, b)
    | Mil.Project (p, a) -> Mil.Project (descend p, a)
    | Mil.Calc1 (op, p) -> Mil.Calc1 (op, descend p)
    | Mil.CalcConst (op, p, a) -> Mil.CalcConst (op, descend p, a)
    | Mil.ConstCalc (op, a, p) -> Mil.ConstCalc (op, a, descend p)
    | Mil.Calc2 (op, l, r) -> Mil.Calc2 (op, descend l, descend r)
    | Mil.SelectCmp (p, c, a) -> Mil.SelectCmp (descend p, c, a)
    | Mil.SelectRange (p, lo, hi) -> Mil.SelectRange (descend p, lo, hi)
    | Mil.SelectBool p -> Mil.SelectBool (descend p)
    | Mil.Join (l, r) -> Mil.Join (descend l, descend r)
    | Mil.LeftOuterJoin (l, r, d) -> Mil.LeftOuterJoin (descend l, descend r, d)
    | Mil.Semijoin (l, r) -> Mil.Semijoin (descend l, descend r)
    | Mil.Antijoin (l, r) -> Mil.Antijoin (descend l, descend r)
    | Mil.Kunion (l, r) -> Mil.Kunion (descend l, descend r)
    | Mil.PairUnion (l, r) -> Mil.PairUnion (descend l, descend r)
    | Mil.PairDiff (l, r) -> Mil.PairDiff (descend l, descend r)
    | Mil.PairInter (l, r) -> Mil.PairInter (descend l, descend r)
    | Mil.Append (l, r) -> Mil.Append (descend l, descend r)
    | Mil.Unique p -> Mil.Unique (descend p)
    | Mil.UniqueHead p -> Mil.UniqueHead (descend p)
    | Mil.GroupAggr (op, p) -> Mil.GroupAggr (op, descend p)
    | Mil.AggrAll (op, p) -> Mil.AggrAll (op, descend p)
    | Mil.GroupRank { link; key; desc; limit } ->
      Mil.GroupRank { link = descend link; key = descend key; desc; limit }
    | Mil.SortTail (p, d) -> Mil.SortTail (descend p, d)
    | Mil.Slice (p, pos, len) -> Mil.Slice (descend p, pos, len)
    | Mil.TopN (p, n, d) -> Mil.TopN (descend p, n, d)
    | Mil.Foreign { name; args; meta } ->
      Mil.Foreign { name; args = List.map descend args; meta }
  in
  rules fired p

(* Every rule strictly decreases the node count, so iterating to a
   fixpoint terminates — no pass cap needed (a cap would let deep
   chains escape un-normalised and break idempotence). *)
let rewrite_count plan =
  let fired = ref 0 in
  let rec fix p =
    let p' = pass fired p in
    if p' = p then p else fix p'
  in
  let plan = fix plan in
  (plan, !fired)

let rewrite plan = fst (rewrite_count plan)
