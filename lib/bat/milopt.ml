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
  rules fired (Mil.with_children plan (List.map (pass fired) (Mil.children plan)))

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
