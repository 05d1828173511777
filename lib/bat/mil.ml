type t =
  | Get of string
  | Lit of { hty : Atom.ty; tty : Atom.ty; pairs : (Atom.t * Atom.t) list }
  | Reverse of t
  | Mirror of t
  | Mark of t * int
  | NumberHead of t * int
  | NumberTail of t * int
  | Project of t * Atom.t
  | Calc1 of Bat.unop * t
  | CalcConst of Bat.binop * t * Atom.t
  | ConstCalc of Bat.binop * Atom.t * t
  | Calc2 of Bat.binop * t * t
  | SelectCmp of t * Bat.cmp * Atom.t
  | SelectRange of t * Atom.t * Atom.t
  | SelectBool of t
  | Join of t * t
  | LeftOuterJoin of t * t * Atom.t
  | Semijoin of t * t
  | Antijoin of t * t
  | Kunion of t * t
  | PairUnion of t * t
  | PairDiff of t * t
  | PairInter of t * t
  | Append of t * t
  | Unique of t
  | UniqueHead of t
  | GroupAggr of Bat.aggr * t
  | AggrAll of Bat.aggr * t
  | GroupRank of { link : t; key : t; desc : bool; limit : int option }
  | SortTail of t * bool
  | Slice of t * int * int
  | TopN of t * int * bool
  | Foreign of { name : string; args : t list; meta : string list }

exception Unbound of string

type foreign_fn = name:string -> args:Bat.t list -> meta:string list -> Bat.t

type stats = {
  mutable evaluated : int;
  mutable memo_hits : int;
  mutable rows_produced : int;
  mutable par_ops : int;
  mutable par_morsels : int;
}

let children = function
  | Get _ | Lit _ -> []
  | Reverse p
  | Mirror p
  | Mark (p, _)
  | NumberHead (p, _)
  | NumberTail (p, _)
  | Project (p, _)
  | Calc1 (_, p)
  | CalcConst (_, p, _)
  | ConstCalc (_, _, p)
  | SelectCmp (p, _, _)
  | SelectRange (p, _, _)
  | SelectBool p
  | Unique p
  | UniqueHead p
  | GroupAggr (_, p)
  | AggrAll (_, p)
  | SortTail (p, _)
  | Slice (p, _, _)
  | TopN (p, _, _) ->
    [ p ]
  | Calc2 (_, l, r)
  | Join (l, r)
  | LeftOuterJoin (l, r, _)
  | Semijoin (l, r)
  | Antijoin (l, r)
  | Kunion (l, r)
  | PairUnion (l, r)
  | PairDiff (l, r)
  | PairInter (l, r)
  | Append (l, r) ->
    [ l; r ]
  | GroupRank { link; key; _ } -> [ link; key ]
  | Foreign { args; _ } -> args

let with_children plan cs =
  match (plan, cs) with
  | (Get _ | Lit _), [] -> plan
  | Reverse _, [ p ] -> Reverse p
  | Mirror _, [ p ] -> Mirror p
  | Mark (_, b), [ p ] -> Mark (p, b)
  | NumberHead (_, b), [ p ] -> NumberHead (p, b)
  | NumberTail (_, b), [ p ] -> NumberTail (p, b)
  | Project (_, a), [ p ] -> Project (p, a)
  | Calc1 (op, _), [ p ] -> Calc1 (op, p)
  | CalcConst (op, _, a), [ p ] -> CalcConst (op, p, a)
  | ConstCalc (op, a, _), [ p ] -> ConstCalc (op, a, p)
  | SelectCmp (_, c, a), [ p ] -> SelectCmp (p, c, a)
  | SelectRange (_, lo, hi), [ p ] -> SelectRange (p, lo, hi)
  | SelectBool _, [ p ] -> SelectBool p
  | Unique _, [ p ] -> Unique p
  | UniqueHead _, [ p ] -> UniqueHead p
  | GroupAggr (op, _), [ p ] -> GroupAggr (op, p)
  | AggrAll (op, _), [ p ] -> AggrAll (op, p)
  | SortTail (_, d), [ p ] -> SortTail (p, d)
  | Slice (_, pos, len), [ p ] -> Slice (p, pos, len)
  | TopN (_, n, d), [ p ] -> TopN (p, n, d)
  | Calc2 (op, _, _), [ l; r ] -> Calc2 (op, l, r)
  | Join _, [ l; r ] -> Join (l, r)
  | LeftOuterJoin (_, _, d), [ l; r ] -> LeftOuterJoin (l, r, d)
  | Semijoin _, [ l; r ] -> Semijoin (l, r)
  | Antijoin _, [ l; r ] -> Antijoin (l, r)
  | Kunion _, [ l; r ] -> Kunion (l, r)
  | PairUnion _, [ l; r ] -> PairUnion (l, r)
  | PairDiff _, [ l; r ] -> PairDiff (l, r)
  | PairInter _, [ l; r ] -> PairInter (l, r)
  | Append _, [ l; r ] -> Append (l, r)
  | GroupRank g, [ link; key ] -> GroupRank { g with link; key }
  | Foreign f, args when List.compare_lengths args f.args = 0 -> Foreign { f with args }
  | _ -> invalid_arg "Mil.with_children: wrong number of children"

let rec size p = List.fold_left (fun acc c -> acc + size c) 1 (children p)

(* {1 Plan hashing}

   Every plan-keyed table (the CSE memo, the analyzer walks) needs a
   hash consistent with structural equality.  [Hashtbl.hash] bounds its
   traversal, so it is O(1) on arbitrarily deep plans; the collisions
   this causes between plans that differ only below the bound are
   resolved by the equality check, and structural comparison
   short-circuits on physically shared subterms — exactly the shape a
   CSE'd DAG has, where a memo probe is usually made with the very node
   that populated the table.  The alternative — a full structural hash
   cached per node in a physical-identity ephemeron table — measured
   ~50x slower on a 3000-node operator chain: every node of a uniform
   chain has the same bounded physical-identity hash, so the cache
   itself degenerates to a single bucket of ephemeron probes. *)

let hash : t -> int = Hashtbl.hash

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  (* Physical identity short-circuits the structural comparison, so
     probing with the very node that populated the table is O(1). *)
  let equal a b = a == b || a = b
  let hash = hash
end)

type par = { pool : Parkernel.pool; safe : t -> bool }

type budget = { max_bytes : int; bound : t -> (int * int option) option }

type session = {
  catalog : Catalog.t;
  foreign : foreign_fn;
  memo : Bat.t Tbl.t;
  cse : bool;
  st : stats;
  tr : Mirror_util.Trace.t;
  par : par option;
  budget : budget option;
  admitted : unit Tbl.t;  (* roots that passed the admission gate *)
}

exception Admission_refused of {
  op : string;
  est_bytes : int;
  peak_bytes : int option;
  budget : int;
}

let no_foreign ~name ~args:_ ~meta:_ =
  failwith (Printf.sprintf "Mil: unknown foreign operator %S" name)

let session ?(cse = true) ?(trace = Mirror_util.Trace.null) ?(foreign = no_foreign) ?par
    ?budget catalog =
  {
    catalog;
    foreign;
    memo = Tbl.create 128;
    cse;
    st = { evaluated = 0; memo_hits = 0; rows_produced = 0; par_ops = 0; par_morsels = 0 };
    tr = trace;
    par;
    budget;
    admitted = Tbl.create 8;
  }

let stats s = s.st
let trace s = s.tr
let catalog s = s.catalog
let cse_enabled s = s.cse

let op_name = function
  | Get _ -> "get"
  | Lit _ -> "lit"
  | Reverse _ -> "reverse"
  | Mirror _ -> "mirror"
  | Mark _ -> "mark"
  | NumberHead _ -> "number_head"
  | NumberTail _ -> "number_tail"
  | Project _ -> "project"
  | Calc1 _ -> "calc1"
  | CalcConst _ -> "calc_const"
  | ConstCalc _ -> "const_calc"
  | Calc2 _ -> "calc2"
  | SelectCmp _ -> "select_cmp"
  | SelectRange _ -> "select_range"
  | SelectBool _ -> "select_bool"
  | Join _ -> "join"
  | LeftOuterJoin _ -> "leftouterjoin"
  | Semijoin _ -> "semijoin"
  | Antijoin _ -> "antijoin"
  | Kunion _ -> "kunion"
  | PairUnion _ -> "pair_union"
  | PairDiff _ -> "pair_diff"
  | PairInter _ -> "pair_inter"
  | Append _ -> "append"
  | Unique _ -> "unique"
  | UniqueHead _ -> "unique_head"
  | GroupAggr _ -> "group_aggr"
  | AggrAll _ -> "aggr_all"
  | GroupRank _ -> "group_rank"
  | SortTail _ -> "sort_tail"
  | Slice _ -> "slice"
  | TopN _ -> "topn"
  | Foreign { name; _ } -> "foreign:" ^ name

(* The licence: a node Effcheck proved safe runs its operator with the
   session's pool current, so [Parkernel.ranges] may split it;
   any other node runs it inline.  The inputs were evaluated before, so
   the licence never reaches an unsafe child.  The node's parallel
   work is read off the growth of the pool's totals and attributed to
   its open trace span and the session counters — only the main domain
   gets here, workers never touch Trace. *)
let licensed s plan f =
  match s.par with
  | Some { pool; safe } when safe plan ->
    let t0 = Parkernel.totals pool in
    let b = Parkernel.with_pool pool f in
    let t1 = Parkernel.totals pool in
    let morsels = t1.Parkernel.t_morsels - t0.Parkernel.t_morsels in
    if morsels > 0 then begin
      s.st.par_ops <- s.st.par_ops + 1;
      s.st.par_morsels <- s.st.par_morsels + morsels;
      if Mirror_util.Trace.is_on s.tr then
        Mirror_util.Trace.attr s.tr "par"
          (Printf.sprintf "%dd/%dm" (Parkernel.size pool) morsels)
    end;
    b
  | _ -> f ()

(* The node's kernel operator over its evaluated inputs. *)
let apply s plan args =
  match (plan, args) with
  | Lit { hty; tty; pairs }, [] -> Bat.of_pairs hty tty pairs
  | Reverse _, [ b ] -> Bat.reverse b
  | Mirror _, [ b ] -> Bat.mirror b
  | Mark (_, base), [ b ] -> Bat.mark b base
  | NumberHead (_, base), [ b ] -> Bat.number_head b base
  | NumberTail (_, base), [ b ] -> Bat.number_tail b base
  | Project (_, a), [ b ] -> Bat.project b a
  | Calc1 (op, _), [ b ] -> Bat.calc1 op b
  | CalcConst (op, _, a), [ b ] -> Bat.calc_const op b a
  | ConstCalc (op, a, _), [ b ] -> Bat.const_calc op a b
  | Calc2 (op, _, _), [ l; r ] -> Bat.calc2 op l r
  | SelectCmp (_, c, a), [ b ] -> Bat.select_cmp b c a
  | SelectRange (_, lo, hi), [ b ] -> Bat.select_range b lo hi
  | SelectBool _, [ b ] -> Bat.select_bool b
  | Join _, [ l; r ] -> Bat.join l r
  | LeftOuterJoin (_, _, d), [ l; r ] -> Bat.leftouterjoin l r d
  | Semijoin _, [ l; r ] -> Bat.semijoin l r
  | Antijoin _, [ l; r ] -> Bat.antijoin l r
  | Kunion _, [ l; r ] -> Bat.kunion l r
  | PairUnion _, [ l; r ] -> Bat.pair_union l r
  | PairDiff _, [ l; r ] -> Bat.pair_diff l r
  | PairInter _, [ l; r ] -> Bat.pair_inter l r
  | Append _, [ l; r ] -> Bat.append l r
  | Unique _, [ b ] -> Bat.unique b
  | UniqueHead _, [ b ] -> Bat.unique_head b
  | GroupAggr (op, _), [ b ] -> Bat.group_aggr op b
  | AggrAll (op, _), [ b ] ->
    let v = Bat.aggr_all op b in
    Bat.of_pairs Atom.TOid (Atom.type_of v) [ (Atom.Oid 0, v) ]
  | GroupRank { desc; limit; _ }, [ link; key ] -> Bat.group_rank ~desc ?limit ~link key
  | SortTail (_, desc), [ b ] -> Bat.sort_tail ~desc b
  | Slice (_, pos, len), [ b ] -> Bat.slice b pos len
  | TopN (_, n, desc), [ b ] -> Bat.topn ~desc b n
  (* parallelism inside a foreign operator passes the same licence: an
     unsafe foreign finds [Parkernel.current () = None] *)
  | Foreign { name; meta; _ }, args -> s.foreign ~name ~args ~meta
  | _ -> invalid_arg ("Mil.apply: arity mismatch at " ^ op_name plan)

let rec eval s plan =
  match if s.cse then Tbl.find_opt s.memo plan else None with
  | Some b ->
    s.st.memo_hits <- s.st.memo_hits + 1;
    if Mirror_util.Trace.is_on s.tr then
      Mirror_util.Trace.event s.tr (op_name plan) ~rows:(Bat.count b)
        ~attrs:[ ("memo", "hit") ];
    b
  | None ->
    let b =
      if not (Mirror_util.Trace.is_on s.tr) then eval_raw s plan
      else begin
        Mirror_util.Trace.enter s.tr (op_name plan);
        match eval_raw s plan with
        | b ->
          Mirror_util.Trace.leave ~rows:(Bat.count b) s.tr;
          b
        | exception e ->
          Mirror_util.Trace.leave
            ~attrs:[ ("error", Printexc.to_string e) ]
            s.tr;
          raise e
      end
    in
    s.st.evaluated <- s.st.evaluated + 1;
    s.st.rows_produced <- s.st.rows_produced + Bat.count b;
    if s.cse then Tbl.add s.memo plan b;
    b

and eval_raw s plan =
  match plan with
  | Get name -> (
    match Catalog.find s.catalog name with
    | Some b -> b
    | None -> raise (Unbound name))
  | _ ->
    let args = List.map (eval s) (children plan) in
    licensed s plan (fun () -> apply s plan args)

(* Admission gate: when the session has a byte budget, a root plan runs
   only if the budget's bound gives it a finite peak envelope that
   fits.  Unbounded plans (unanalysed, undeclared foreign rows, …) are
   refused — fail-closed, since the budget exists to protect the
   machine.  Each distinct root is vetted once per session. *)
let admit s plan =
  match s.budget with
  | None -> ()
  | Some _ when Tbl.mem s.admitted plan -> ()
  | Some { max_bytes = budget; bound } -> (
    match bound plan with
    | Some (_, Some peak) when peak <= budget -> Tbl.add s.admitted plan ()
    | Some (est, peak) ->
      raise
        (Admission_refused { op = op_name plan; est_bytes = est; peak_bytes = peak; budget })
    | None ->
      raise
        (Admission_refused { op = op_name plan; est_bytes = 0; peak_bytes = None; budget }))

let exec s plan =
  admit s plan;
  eval s plan

(* Bytes currently held by the session's memo table, deduplicating
   physically shared columns (reverse/mirror results alias their
   input's arrays).  This is the runtime ground truth the static
   resident envelope of [Boundcheck] must bound from above. *)
let resident_bytes s =
  let seen = ref [] in
  let col c =
    if List.memq c !seen then 0
    else begin
      seen := c :: !seen;
      Column.bytes c
    end
  in
  Tbl.fold (fun _ b acc -> acc + col (Bat.head b) + col (Bat.tail b)) s.memo 0

let cmp_name = function
  | Bat.Eq -> "="
  | Bat.Ne -> "!="
  | Bat.Lt -> "<"
  | Bat.Le -> "<="
  | Bat.Gt -> ">"
  | Bat.Ge -> ">="

let binop_name = function
  | Bat.Add -> "add"
  | Bat.Sub -> "sub"
  | Bat.Mul -> "mul"
  | Bat.Div -> "div"
  | Bat.Pow -> "pow"
  | Bat.MinOp -> "min"
  | Bat.MaxOp -> "max"
  | Bat.CmpOp c -> "cmp" ^ cmp_name c
  | Bat.And -> "and"
  | Bat.Or -> "or"

let unop_name = function
  | Bat.Not -> "not"
  | Bat.Neg -> "neg"
  | Bat.Log -> "log"
  | Bat.Exp -> "exp"
  | Bat.Sqrt -> "sqrt"
  | Bat.Abs -> "abs"
  | Bat.ToFlt -> "toflt"

let aggr_name = function
  | Bat.Sum -> "sum"
  | Bat.Prod -> "prod"
  | Bat.Count -> "count"
  | Bat.Min -> "min"
  | Bat.Max -> "max"
  | Bat.Avg -> "avg"

let rec pp ppf plan =
  let node name children =
    Format.fprintf ppf "@[<v 2>%s" name;
    List.iter (fun c -> Format.fprintf ppf "@,%a" pp c) children;
    Format.fprintf ppf "@]"
  in
  match plan with
  | Get name -> Format.fprintf ppf "get %S" name
  | Lit { pairs; _ } -> Format.fprintf ppf "lit(%d rows)" (List.length pairs)
  | Reverse p -> node "reverse" [ p ]
  | Mirror p -> node "mirror" [ p ]
  | Mark (p, base) -> node (Printf.sprintf "mark@%d" base) [ p ]
  | NumberHead (p, base) -> node (Printf.sprintf "number_head@%d" base) [ p ]
  | NumberTail (p, base) -> node (Printf.sprintf "number_tail@%d" base) [ p ]
  | Project (p, a) -> node (Printf.sprintf "project[%s]" (Atom.to_string a)) [ p ]
  | Calc1 (op, p) -> node (Printf.sprintf "calc1[%s]" (unop_name op)) [ p ]
  | CalcConst (op, p, a) ->
    node (Printf.sprintf "calc[%s, _, %s]" (binop_name op) (Atom.to_string a)) [ p ]
  | ConstCalc (op, a, p) ->
    node (Printf.sprintf "calc[%s, %s, _]" (binop_name op) (Atom.to_string a)) [ p ]
  | Calc2 (op, l, r) -> node (Printf.sprintf "calc2[%s]" (binop_name op)) [ l; r ]
  | SelectCmp (p, c, a) ->
    node (Printf.sprintf "select[%s %s]" (cmp_name c) (Atom.to_string a)) [ p ]
  | SelectRange (p, lo, hi) ->
    node (Printf.sprintf "select[%s..%s]" (Atom.to_string lo) (Atom.to_string hi)) [ p ]
  | SelectBool p -> node "select[true]" [ p ]
  | Join (l, r) -> node "join" [ l; r ]
  | LeftOuterJoin (l, r, d) ->
    node (Printf.sprintf "outerjoin[%s]" (Atom.to_string d)) [ l; r ]
  | Semijoin (l, r) -> node "semijoin" [ l; r ]
  | Antijoin (l, r) -> node "antijoin" [ l; r ]
  | Kunion (l, r) -> node "kunion" [ l; r ]
  | PairUnion (l, r) -> node "pair_union" [ l; r ]
  | PairDiff (l, r) -> node "pair_diff" [ l; r ]
  | PairInter (l, r) -> node "pair_inter" [ l; r ]
  | Append (l, r) -> node "append" [ l; r ]
  | Unique p -> node "unique" [ p ]
  | UniqueHead p -> node "unique_head" [ p ]
  | GroupAggr (op, p) -> node (Printf.sprintf "group_%s" (aggr_name op)) [ p ]
  | AggrAll (op, p) -> node (Printf.sprintf "aggr_%s" (aggr_name op)) [ p ]
  | GroupRank { link; key; desc; limit } ->
    node
      (Printf.sprintf "group_rank[%s%s]"
         (if desc then "desc" else "asc")
         (match limit with Some k -> Printf.sprintf ",<%d" k | None -> ""))
      [ link; key ]
  | SortTail (p, desc) ->
    node (Printf.sprintf "sort_tail[%s]" (if desc then "desc" else "asc")) [ p ]
  | Slice (p, pos, len) -> node (Printf.sprintf "slice[%d,%d]" pos len) [ p ]
  | TopN (p, n, desc) ->
    node (Printf.sprintf "top%d[%s]" n (if desc then "desc" else "asc")) [ p ]
  | Foreign { name; args; meta } ->
    node (Printf.sprintf "foreign[%s%s]" name
            (if meta = [] then "" else "; " ^ String.concat "," meta))
      args

let to_string plan = Format.asprintf "%a" pp plan
