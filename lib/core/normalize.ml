module Bat = Mirror_bat.Bat

(* {1 Alpha-invariant structural keys}

   [db_key] renders an expression with binders erased and bound
   variables replaced by their de Bruijn depth, so the key is
   invariant under renaming.  It orders the operand pair of every
   commutative operator; because it is computed on already-sorted
   children, the sort pass below is idempotent. *)

let rec db_key env buf e =
  let go = db_key env buf in
  let under names sub =
    db_key (List.rev_append names env) buf sub
  in
  let op2 tag a b =
    Buffer.add_string buf tag;
    Buffer.add_char buf '(';
    go a;
    Buffer.add_char buf ',';
    go b;
    Buffer.add_char buf ')'
  in
  match (e : Expr.t) with
  | Expr.Extent n -> Buffer.add_string buf ("E:" ^ n)
  | Expr.Lit (v, _) ->
    Buffer.add_string buf "L:";
    Value.to_buffer buf v
  | Expr.Var x -> (
    match List.find_index (String.equal x) env with
    | Some i -> Buffer.add_string buf (Printf.sprintf "#%d" i)
    | None -> Buffer.add_string buf ("F:" ^ x))
  | Expr.Field (e, f) ->
    go e;
    Buffer.add_string buf ("." ^ f)
  | Expr.Tuple fields ->
    Buffer.add_string buf "tup(";
    List.iter
      (fun (l, fe) ->
        Buffer.add_string buf (l ^ ":");
        go fe;
        Buffer.add_char buf ',')
      fields;
    Buffer.add_char buf ')'
  | Expr.Map { v; body; src } ->
    Buffer.add_string buf "map[";
    under [ v ] body;
    Buffer.add_string buf "](";
    go src;
    Buffer.add_char buf ')'
  | Expr.Select { v; pred; src } ->
    Buffer.add_string buf "sel[";
    under [ v ] pred;
    Buffer.add_string buf "](";
    go src;
    Buffer.add_char buf ')'
  | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
    Buffer.add_string buf (Printf.sprintf "join[%s,%s;" l1 l2);
    under [ v2; v1 ] pred;
    Buffer.add_string buf "](";
    go left;
    Buffer.add_char buf ',';
    go right;
    Buffer.add_char buf ')'
  | Expr.Semijoin { v1; v2; pred; left; right } ->
    Buffer.add_string buf "semi[";
    under [ v2; v1 ] pred;
    Buffer.add_string buf "](";
    go left;
    Buffer.add_char buf ',';
    go right;
    Buffer.add_char buf ')'
  | Expr.Aggr (a, e) ->
    Buffer.add_string buf (Expr.aggr_name a ^ "(");
    go e;
    Buffer.add_char buf ')'
  | Expr.Binop (op, a, b) -> op2 ("b:" ^ Expr.binop_sym op) a b
  | Expr.Unop (op, e) ->
    Buffer.add_string buf (Expr.unop_name op ^ "(");
    go e;
    Buffer.add_char buf ')'
  | Expr.Exists e ->
    Buffer.add_string buf "exists(";
    go e;
    Buffer.add_char buf ')'
  | Expr.Member (x, s) -> op2 "in" x s
  | Expr.Union (a, b) -> op2 "union" a b
  | Expr.Diff (a, b) -> op2 "diff" a b
  | Expr.Inter (a, b) -> op2 "inter" a b
  | Expr.Flat e ->
    Buffer.add_string buf "flat(";
    go e;
    Buffer.add_char buf ')'
  | Expr.Nest { src; key; inner } ->
    Buffer.add_string buf (Printf.sprintf "nest[%s,%s](" key inner);
    go src;
    Buffer.add_char buf ')'
  | Expr.Unnest { src; field } ->
    Buffer.add_string buf (Printf.sprintf "unnest[%s](" field);
    go src;
    Buffer.add_char buf ')'
  | Expr.ExtOp { op; args } ->
    Buffer.add_string buf ("x:" ^ op ^ "(");
    List.iter
      (fun a ->
        go a;
        Buffer.add_char buf ',')
      args;
    Buffer.add_char buf ')'

let alpha_key env e =
  let buf = Buffer.create 64 in
  db_key env buf e;
  Buffer.contents buf

(* {1 Pass 1: commutative operand sort}

   [a + b] is equivalent to [b + a] for every listed operator: the
   set-at-a-time kernel evaluates both operand columns regardless of
   order, IEEE addition/multiplication and min/max are commutative at
   the value level, and [=]/[<>]/[union]/[inter] are symmetric.
   Ordered comparisons, [-], [/], [pow] and [diff] are not touched. *)

let commutative : Bat.binop -> bool = function
  | Bat.Add | Bat.Mul | Bat.MinOp | Bat.MaxOp | Bat.And | Bat.Or -> true
  | Bat.CmpOp (Bat.Eq | Bat.Ne) -> true
  | Bat.CmpOp (Bat.Lt | Bat.Le | Bat.Gt | Bat.Ge) | Bat.Sub | Bat.Div | Bat.Pow -> false

let rec sortpass env (e : Expr.t) : Expr.t =
  let pair ctor a b =
    let a = sortpass env a and b = sortpass env b in
    if String.compare (alpha_key env a) (alpha_key env b) <= 0 then ctor a b else ctor b a
  in
  match e with
  | Expr.Extent _ | Expr.Lit _ | Expr.Var _ -> e
  | Expr.Field (e, f) -> Expr.Field (sortpass env e, f)
  | Expr.Tuple fields -> Expr.Tuple (List.map (fun (l, fe) -> (l, sortpass env fe)) fields)
  | Expr.Map { v; body; src } ->
    Expr.Map { v; body = sortpass (v :: env) body; src = sortpass env src }
  | Expr.Select { v; pred; src } ->
    Expr.Select { v; pred = sortpass (v :: env) pred; src = sortpass env src }
  | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
    Expr.Join
      {
        v1;
        v2;
        pred = sortpass (v1 :: v2 :: env) pred;
        left = sortpass env left;
        right = sortpass env right;
        l1;
        l2;
      }
  | Expr.Semijoin { v1; v2; pred; left; right } ->
    Expr.Semijoin
      {
        v1;
        v2;
        pred = sortpass (v1 :: v2 :: env) pred;
        left = sortpass env left;
        right = sortpass env right;
      }
  | Expr.Aggr (a, e) -> Expr.Aggr (a, sortpass env e)
  | Expr.Binop (op, a, b) when commutative op -> pair (fun a b -> Expr.Binop (op, a, b)) a b
  | Expr.Binop (op, a, b) -> Expr.Binop (op, sortpass env a, sortpass env b)
  | Expr.Unop (op, e) -> Expr.Unop (op, sortpass env e)
  | Expr.Exists e -> Expr.Exists (sortpass env e)
  | Expr.Member (x, s) -> Expr.Member (sortpass env x, sortpass env s)
  | Expr.Union (a, b) -> pair (fun a b -> Expr.Union (a, b)) a b
  | Expr.Inter (a, b) -> pair (fun a b -> Expr.Inter (a, b)) a b
  | Expr.Diff (a, b) -> Expr.Diff (sortpass env a, sortpass env b)
  | Expr.Flat e -> Expr.Flat (sortpass env e)
  | Expr.Nest { src; key; inner } -> Expr.Nest { src = sortpass env src; key; inner }
  | Expr.Unnest { src; field } -> Expr.Unnest { src = sortpass env src; field }
  | Expr.ExtOp { op; args } -> Expr.ExtOp { op; args = List.map (sortpass env) args }

(* {1 Pass 2: alpha-normalisation}

   Binders become [v1], [v2], … in pre-order (sources before bodies,
   matching evaluation order), skipping any name that occurs free in
   the query so free identifiers are never captured.  Free variables
   keep their names — they are part of the query's meaning (supplied
   through [?bindings]). *)

let alphapass free (e : Expr.t) : Expr.t =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    let rec pick n =
      let name = Printf.sprintf "v%d" n in
      if List.mem name free then begin
        incr counter;
        pick (n + 1)
      end
      else name
    in
    pick !counter
  in
  let rename env x = match List.assoc_opt x env with Some y -> y | None -> x in
  let rec go env (e : Expr.t) : Expr.t =
    match e with
    | Expr.Extent _ | Expr.Lit _ -> e
    | Expr.Var x -> Expr.Var (rename env x)
    | Expr.Field (e, f) -> Expr.Field (go env e, f)
    | Expr.Tuple fields -> Expr.Tuple (List.map (fun (l, fe) -> (l, go env fe)) fields)
    | Expr.Map { v; body; src } ->
      let src = go env src in
      let v' = fresh () in
      Expr.Map { v = v'; body = go ((v, v') :: env) body; src }
    | Expr.Select { v; pred; src } ->
      let src = go env src in
      let v' = fresh () in
      Expr.Select { v = v'; pred = go ((v, v') :: env) pred; src }
    | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
      let left = go env left and right = go env right in
      let v1' = fresh () in
      let v2' = fresh () in
      Expr.Join
        { v1 = v1'; v2 = v2'; pred = go ((v1, v1') :: (v2, v2') :: env) pred; left; right; l1; l2 }
    | Expr.Semijoin { v1; v2; pred; left; right } ->
      let left = go env left and right = go env right in
      let v1' = fresh () in
      let v2' = fresh () in
      Expr.Semijoin
        { v1 = v1'; v2 = v2'; pred = go ((v1, v1') :: (v2, v2') :: env) pred; left; right }
    | Expr.Aggr (a, e) -> Expr.Aggr (a, go env e)
    | Expr.Binop (op, a, b) -> Expr.Binop (op, go env a, go env b)
    | Expr.Unop (op, e) -> Expr.Unop (op, go env e)
    | Expr.Exists e -> Expr.Exists (go env e)
    | Expr.Member (x, s) -> Expr.Member (go env x, go env s)
    | Expr.Union (a, b) -> Expr.Union (go env a, go env b)
    | Expr.Diff (a, b) -> Expr.Diff (go env a, go env b)
    | Expr.Inter (a, b) -> Expr.Inter (go env a, go env b)
    | Expr.Flat e -> Expr.Flat (go env e)
    | Expr.Nest { src; key; inner } -> Expr.Nest { src = go env src; key; inner }
    | Expr.Unnest { src; field } -> Expr.Unnest { src = go env src; field }
    | Expr.ExtOp { op; args } -> Expr.ExtOp { op; args = List.map (go env) args }
  in
  go [] e

let canonical e =
  let free = Expr.free_vars e in
  alphapass free (sortpass [] e)

let key e = Expr.to_string (canonical e)

let hash e = Mirror_util.Crc32.to_hex (Mirror_util.Crc32.string (key e))
