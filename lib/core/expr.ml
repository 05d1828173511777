module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom

type t =
  | Extent of string
  | Lit of Value.t * Types.t
  | Var of string
  | Field of t * string
  | Tuple of (string * t) list
  | Map of { v : string; body : t; src : t }
  | Select of { v : string; pred : t; src : t }
  | Join of { v1 : string; v2 : string; pred : t; left : t; right : t; l1 : string; l2 : string }
  | Semijoin of { v1 : string; v2 : string; pred : t; left : t; right : t }
  | Aggr of Bat.aggr * t
  | Binop of Bat.binop * t * t
  | Unop of Bat.unop * t
  | Exists of t
  | Member of t * t
  | Union of t * t
  | Diff of t * t
  | Inter of t * t
  | Flat of t
  | Nest of { src : t; key : string; inner : string }
  | Unnest of { src : t; field : string }
  | ExtOp of { op : string; args : t list }

let lit_int i = Lit (Value.int i, Types.Atomic Atom.TInt)
let lit_flt f = Lit (Value.flt f, Types.Atomic Atom.TFlt)
let lit_str s = Lit (Value.str s, Types.Atomic Atom.TStr)
let lit_bool b = Lit (Value.bool b, Types.Atomic Atom.TBool)

let lit_str_set words =
  Lit (Value.VSet (List.map Value.str words), Types.Set (Types.Atomic Atom.TStr))

let map ~v ~body src = Map { v; body; src }
let select ~v ~pred src = Select { v; pred; src }
let getbl contrep query = ExtOp { op = "getBL"; args = [ contrep; query ] }
let sum e = Aggr (Bat.Sum, e)

let free_vars expr =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec go bound = function
    | Extent _ | Lit _ -> ()
    | Var v ->
      if (not (List.mem v bound)) && not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out := v :: !out
      end
    | Field (e, _) | Unop (_, e) | Aggr (_, e) | Exists e | Flat e -> go bound e
    | Tuple fields -> List.iter (fun (_, e) -> go bound e) fields
    | Map { v; body; src } | Select { v; pred = body; src } ->
      go bound src;
      go (v :: bound) body
    | Join { v1; v2; pred; left; right; _ } | Semijoin { v1; v2; pred; left; right } ->
      go bound left;
      go bound right;
      go (v1 :: v2 :: bound) pred
    | Binop (_, a, b) | Member (a, b) | Union (a, b) | Diff (a, b) | Inter (a, b) ->
      go bound a;
      go bound b
    | Nest { src; _ } | Unnest { src; _ } -> go bound src
    | ExtOp { args; _ } -> List.iter (go bound) args
  in
  go [] expr;
  List.rev !out

let rec size = function
  | Extent _ | Lit _ | Var _ -> 1
  | Field (e, _) | Unop (_, e) | Aggr (_, e) | Exists e | Flat e -> 1 + size e
  | Tuple fields -> List.fold_left (fun acc (_, e) -> acc + size e) 1 fields
  | Map { body; src; _ } | Select { pred = body; src; _ } -> 1 + size body + size src
  | Join { pred; left; right; _ } | Semijoin { pred; left; right; _ } ->
    1 + size pred + size left + size right
  | Binop (_, a, b) | Member (a, b) | Union (a, b) | Diff (a, b) | Inter (a, b) ->
    1 + size a + size b
  | Nest { src; _ } | Unnest { src; _ } -> 1 + size src
  | ExtOp { args; _ } -> List.fold_left (fun acc e -> acc + size e) 1 args

let aggr_name = function
  | Bat.Sum -> "sum"
  | Bat.Prod -> "prod"
  | Bat.Count -> "count"
  | Bat.Min -> "min"
  | Bat.Max -> "max"
  | Bat.Avg -> "avg"

let binop_sym = function
  | Bat.Add -> "+"
  | Bat.Sub -> "-"
  | Bat.Mul -> "*"
  | Bat.Div -> "/"
  | Bat.Pow -> "^"
  | Bat.MinOp -> "min2"
  | Bat.MaxOp -> "max2"
  | Bat.CmpOp Bat.Eq -> "="
  | Bat.CmpOp Bat.Ne -> "!="
  | Bat.CmpOp Bat.Lt -> "<"
  | Bat.CmpOp Bat.Le -> "<="
  | Bat.CmpOp Bat.Gt -> ">"
  | Bat.CmpOp Bat.Ge -> ">="
  | Bat.And -> "and"
  | Bat.Or -> "or"

let unop_name = function
  | Bat.Not -> "not"
  | Bat.Neg -> "neg"
  | Bat.Log -> "log"
  | Bat.Exp -> "exp"
  | Bat.Sqrt -> "sqrt"
  | Bat.Abs -> "abs"
  | Bat.ToFlt -> "flt"

let op_name = function
  | Extent _ -> "extent"
  | Lit _ -> "lit"
  | Var _ -> "var"
  | Field _ -> "field"
  | Tuple _ -> "tuple"
  | Map _ -> "map"
  | Select _ -> "select"
  | Join _ -> "join"
  | Semijoin _ -> "semijoin"
  | Aggr (a, _) -> aggr_name a
  | Binop (op, _, _) -> binop_sym op
  | Unop (op, _) -> unop_name op
  | Exists _ -> "exists"
  | Member _ -> "in"
  | Union _ -> "union"
  | Diff _ -> "diff"
  | Inter _ -> "inter"
  | Flat _ -> "flatten"
  | Nest _ -> "nest"
  | Unnest _ -> "unnest"
  | ExtOp { op; _ } -> op

let rec to_buffer buf expr =
  let str = Buffer.add_string buf in
  let go = to_buffer buf in
  let args es = Mirror_util.Stringx.add_list buf ", " go es in
  let call name es =
    str name;
    str "(";
    args es;
    str ")"
  in
  (* [head[binders: pred; tail](srcs)] *)
  let bind head binders pred tail srcs =
    str head;
    str "[";
    str binders;
    str ": ";
    go pred;
    str tail;
    str "](";
    args srcs;
    str ")"
  in
  match expr with
  | Extent name -> str name
  | Lit (v, _) -> Value.to_buffer buf v
  | Var v -> str v
  | Field (e, f) ->
    go e;
    str ".";
    str f
  | Tuple fields ->
    str "tuple(";
    Mirror_util.Stringx.add_list buf ", "
      (fun (l, e) ->
        str l;
        str ": ";
        go e)
      fields;
    str ")"
  | Map { v; body; src } -> bind "map" v body "" [ src ]
  | Select { v; pred; src } -> bind "select" v pred "" [ src ]
  | Join { v1; v2; pred; left; right; l1; l2 } ->
    bind "join" (v1 ^ ", " ^ v2) pred ("; " ^ l1 ^ ", " ^ l2) [ left; right ]
  | Semijoin { v1; v2; pred; left; right } ->
    bind "semijoin" (v1 ^ ", " ^ v2) pred "" [ left; right ]
  | Aggr (a, e) -> call (aggr_name a) [ e ]
  | Binop (Bat.Pow, a, b) -> call "pow" [ a; b ]
  | Binop (((Bat.MinOp | Bat.MaxOp) as op), a, b) -> call (binop_sym op) [ a; b ]
  | Binop (op, a, b) ->
    str "(";
    go a;
    str " ";
    str (binop_sym op);
    str " ";
    go b;
    str ")"
  | Unop (op, e) -> call (unop_name op) [ e ]
  | Exists e -> call "exists" [ e ]
  | Member (x, s) -> call "in" [ x; s ]
  | Union (a, b) -> call "union" [ a; b ]
  | Diff (a, b) -> call "diff" [ a; b ]
  | Inter (a, b) -> call "inter" [ a; b ]
  | Flat e -> call "flatten" [ e ]
  | Nest { src; key; inner } -> call ("nest[" ^ key ^ ", " ^ inner ^ "]") [ src ]
  | Unnest { src; field } -> call ("unnest[" ^ field ^ "]") [ src ]
  | ExtOp { op; args } -> call op args

let to_string e =
  let buf = Buffer.create 256 in
  to_buffer buf e;
  Buffer.contents buf

let pp ppf e = Format.pp_print_string ppf (to_string e)
