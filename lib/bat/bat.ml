type t = { hd : Column.t; tl : Column.t }

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type binop = Add | Sub | Mul | Div | Pow | MinOp | MaxOp | CmpOp of cmp | And | Or
type unop = Not | Neg | Log | Exp | Sqrt | Abs | ToFlt
type aggr = Sum | Prod | Count | Min | Max | Avg

module AtomTbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

(* Growable int vector used to collect row indices. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }
  let with_capacity c = { a = Array.make (max 16 c) 0; n = 0 }

  (* inlined: a call per survivor cost a 2-domain scan of 100k rows
     about 10% on a 2-core host *)
  let[@inline] push b v =
    if b.n = Array.length b.a then begin
      let fresh = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 fresh 0 b.n;
      b.a <- fresh
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let get b i = b.a.(i)
  let set b i v = b.a.(i) <- v
  let len b = b.n
  let finish b = Array.sub b.a 0 b.n
end

(* Growable float vector for unboxed aggregate accumulators. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 16 0.0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let fresh = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 fresh 0 b.n;
      b.a <- fresh
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let get b i = b.a.(i)
  let set b i v = b.a.(i) <- v
  let finish b = Array.sub b.a 0 b.n
end

(* Fresh typed arrays with cell [i] = [f i], each range of
   [Parkernel.fill] filling its own slice. *)
let ints n f =
  let o = Array.make n 0 in
  Parkernel.fill n (fun lo hi ->
      for i = lo to hi - 1 do
        o.(i) <- f i
      done);
  o

let floats n f =
  let o = Array.make n 0.0 in
  Parkernel.fill n (fun lo hi ->
      for i = lo to hi - 1 do
        o.(i) <- f i
      done);
  o

let bools n f =
  let o = Array.make n false in
  Parkernel.fill n (fun lo hi ->
      for i = lo to hi - 1 do
        o.(i) <- f i
      done);
  o

let make hd tl =
  if Column.length hd <> Column.length tl then
    invalid_arg "Bat.make: column length mismatch";
  { hd; tl }

let empty hty tty = { hd = Column.make hty 0; tl = Column.make tty 0 }

let of_pairs hty tty pairs =
  let hd = Column.of_atoms hty (List.map fst pairs) in
  let tl = Column.of_atoms tty (List.map snd pairs) in
  { hd; tl }

let count b = Column.length b.hd
let hty b = Column.ty b.hd
let tty b = Column.ty b.tl
let head b = b.hd
let tail b = b.tl
let head_at b i = Column.get b.hd i
let tail_at b i = Column.get b.tl i

let to_pairs b = List.init (count b) (fun i -> (head_at b i, tail_at b i))

let iter f b =
  for i = 0 to count b - 1 do
    f (head_at b i) (tail_at b i)
  done

let fold f init b =
  let acc = ref init in
  iter (fun h t -> acc := f !acc h t) b;
  !acc

let equal a b = Column.equal a.hd b.hd && Column.equal a.tl b.tl

let equal_as_set a b =
  let sorted x =
    let pairs = to_pairs x in
    List.sort
      (fun (h1, t1) (h2, t2) ->
        let c = Atom.compare h1 h2 in
        if c <> 0 then c else Atom.compare t1 t2)
      pairs
  in
  count a = count b
  && List.for_all2
       (fun (h1, t1) (h2, t2) -> Atom.equal h1 h2 && Atom.equal t1 t2)
       (sorted a) (sorted b)

let pp ppf b =
  let n = count b in
  let shown = min n 24 in
  Format.fprintf ppf "@[<hov 1>[";
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf ppf ";@ ";
    Format.fprintf ppf "%a->%a" Atom.pp (head_at b i) Atom.pp (tail_at b i)
  done;
  if n > shown then Format.fprintf ppf ";@ …(%d rows)" n;
  Format.fprintf ppf "]@]"

(* {1 Atom-level operator semantics} *)

let numeric_promote a b =
  match (a, b) with
  | Atom.Int x, Atom.Int y -> `Int (x, y)
  | (Atom.Int _ | Atom.Flt _), (Atom.Int _ | Atom.Flt _) ->
    `Flt (Atom.as_float a, Atom.as_float b)
  | _ -> `Other

let bad_operands name a b =
  invalid_arg
    (Printf.sprintf "Bat.%s: bad operand types %s/%s" name
       (Atom.ty_name (Atom.type_of a))
       (Atom.ty_name (Atom.type_of b)))

let apply_cmp c a b =
  (* Mixed int/float operands compare numerically (the type system
     promotes them); Atom.compare's cross-type rank order is only for
     sorting heterogeneous columns. *)
  let r =
    match numeric_promote a b with
    | `Int (x, y) -> Stdlib.compare x y
    | `Flt (x, y) -> Float.compare x y
    | `Other -> Atom.compare a b
  in
  match c with
  | Eq -> r = 0
  | Ne -> r <> 0
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0

let apply_binop op a b =
  match op with
  | Add -> (
    match numeric_promote a b with
    | `Int (x, y) -> Atom.Int (x + y)
    | `Flt (x, y) -> Atom.Flt (x +. y)
    | `Other -> (
      match (a, b) with Atom.Str x, Atom.Str y -> Atom.Str (x ^ y) | _ -> bad_operands "add" a b))
  | Sub -> (
    match numeric_promote a b with
    | `Int (x, y) -> Atom.Int (x - y)
    | `Flt (x, y) -> Atom.Flt (x -. y)
    | `Other -> bad_operands "sub" a b)
  | Mul -> (
    match numeric_promote a b with
    | `Int (x, y) -> Atom.Int (x * y)
    | `Flt (x, y) -> Atom.Flt (x *. y)
    | `Other -> bad_operands "mul" a b)
  | Div -> (
    match numeric_promote a b with
    | `Int (x, y) -> if y = 0 then raise Division_by_zero else Atom.Int (x / y)
    | `Flt (x, y) -> Atom.Flt (x /. y)
    | `Other -> bad_operands "div" a b)
  | Pow -> (
    match numeric_promote a b with
    | `Int (x, y) -> Atom.Flt (Float.of_int x ** Float.of_int y)
    | `Flt (x, y) -> Atom.Flt (x ** y)
    | `Other -> bad_operands "pow" a b)
  | MinOp -> (
    match numeric_promote a b with
    | `Int (x, y) -> Atom.Int (min x y)
    | `Flt (x, y) -> Atom.Flt (Float.min x y)
    | `Other -> if Atom.compare b a < 0 then b else a)
  | MaxOp -> (
    match numeric_promote a b with
    | `Int (x, y) -> Atom.Int (max x y)
    | `Flt (x, y) -> Atom.Flt (Float.max x y)
    | `Other -> if Atom.compare b a > 0 then b else a)
  | CmpOp c -> Atom.Bool (apply_cmp c a b)
  | And -> (
    match (a, b) with
    | Atom.Bool x, Atom.Bool y -> Atom.Bool (x && y)
    | _ -> bad_operands "and" a b)
  | Or -> (
    match (a, b) with
    | Atom.Bool x, Atom.Bool y -> Atom.Bool (x || y)
    | _ -> bad_operands "or" a b)

let bad_operand name a =
  invalid_arg
    (Printf.sprintf "Bat.%s: bad operand type %s" name (Atom.ty_name (Atom.type_of a)))

let apply_unop op a =
  match (op, a) with
  | Not, Atom.Bool x -> Atom.Bool (not x)
  | Not, _ -> bad_operand "not" a
  | Neg, Atom.Int x -> Atom.Int (-x)
  | Neg, Atom.Flt x -> Atom.Flt (-.x)
  | Neg, _ -> bad_operand "neg" a
  | Log, (Atom.Int _ | Atom.Flt _) -> Atom.Flt (log (Atom.as_float a))
  | Log, _ -> bad_operand "log" a
  | Exp, (Atom.Int _ | Atom.Flt _) -> Atom.Flt (exp (Atom.as_float a))
  | Exp, _ -> bad_operand "exp" a
  | Sqrt, (Atom.Int _ | Atom.Flt _) -> Atom.Flt (sqrt (Atom.as_float a))
  | Sqrt, _ -> bad_operand "sqrt" a
  | Abs, Atom.Int x -> Atom.Int (abs x)
  | Abs, Atom.Flt x -> Atom.Flt (Float.abs x)
  | Abs, _ -> bad_operand "abs" a
  | ToFlt, (Atom.Int _ | Atom.Flt _) -> Atom.Flt (Atom.as_float a)
  | ToFlt, _ -> bad_operand "toflt" a

let binop_result_ty op t1 t2 =
  match op with
  | Add | Sub | Mul | Div | MinOp | MaxOp -> (
    match (t1, t2) with
    | Atom.TInt, Atom.TInt -> Atom.TInt
    | (Atom.TInt | Atom.TFlt), (Atom.TInt | Atom.TFlt) -> Atom.TFlt
    | Atom.TStr, Atom.TStr when op = Add -> Atom.TStr
    | _ when op = MinOp || op = MaxOp -> t1
    | _ -> invalid_arg "Bat.binop_result_ty: non-numeric operands")
  | Pow -> Atom.TFlt
  | CmpOp _ -> Atom.TBool
  | And | Or -> Atom.TBool

let unop_result_ty op t =
  match op with
  | Not -> Atom.TBool
  | Neg | Abs -> t
  | Log | Exp | Sqrt | ToFlt -> Atom.TFlt

(* Typed fast paths for the element-wise calculation loops.  [None]
   means "no specialisation, use the generic boxed loop". *)
let float_binop = function
  | Add -> Some ( +. )
  | Sub -> Some ( -. )
  | Mul -> Some ( *. )
  | Div -> Some ( /. )
  | Pow -> Some ( ** )
  | MinOp -> Some Float.min
  | MaxOp -> Some Float.max
  | CmpOp _ | And | Or -> None

let int_binop = function
  | Add -> Some ( + )
  | Sub -> Some ( - )
  | Mul -> Some ( * )
  | MinOp -> Some min
  | MaxOp -> Some max
  | Div | Pow | CmpOp _ | And | Or -> None

let int_cmp c : int -> int -> bool =
  match c with
  | Eq -> ( = )
  | Ne -> ( <> )
  | Lt -> ( < )
  | Le -> ( <= )
  | Gt -> ( > )
  | Ge -> ( >= )

let float_cmp c : float -> float -> bool =
  match c with
  | Eq -> fun a b -> Float.compare a b = 0
  | Ne -> fun a b -> Float.compare a b <> 0
  | Lt -> fun a b -> Float.compare a b < 0
  | Le -> fun a b -> Float.compare a b <= 0
  | Gt -> fun a b -> Float.compare a b > 0
  | Ge -> fun a b -> Float.compare a b >= 0

(* Positional element-wise application with typed loops where possible;
   both inputs must be row-aligned. *)
let calc_pos_tails op lt rt =
  let n = Column.length lt in
  match (op, lt, rt) with
  | _, Column.I a, Column.I b -> (
    match (op, int_binop op) with
    | _, Some f -> Some (Column.I (ints n (fun i -> f a.(i) b.(i))))
    | CmpOp c, _ ->
      let f = int_cmp c in
      Some (Column.B (bools n (fun i -> f a.(i) b.(i))))
    | _ -> None)
  | _, Column.F a, Column.F b -> (
    match (op, float_binop op) with
    | _, Some f -> Some (Column.F (floats n (fun i -> f a.(i) b.(i))))
    | CmpOp c, _ ->
      let f = float_cmp c in
      Some (Column.B (bools n (fun i -> f a.(i) b.(i))))
    | _ -> None)
  | _ -> None

(* Monet's "void" columns: a head of consecutive oids needs no hash
   index — positions are arithmetic.  Returns the base oid when the
   array is dense ascending. *)
let dense_base arr =
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let base = arr.(0) in
    let ok = ref true in
    let i = ref 1 in
    while !ok && !i < n do
      if arr.(!i) <> base + !i then ok := false;
      incr i
    done;
    if !ok then Some base else None
  end

let is_nondecreasing arr =
  let ok = ref true in
  let i = ref 1 in
  while !ok && !i < Array.length arr do
    if arr.(!i) < arr.(!i - 1) then ok := false;
    incr i
  done;
  !ok

let is_strictly_increasing arr =
  let ok = ref true in
  let i = ref 1 in
  while !ok && !i < Array.length arr do
    if arr.(!i) <= arr.(!i - 1) then ok := false;
    incr i
  done;
  !ok

let same_int_heads l r =
  match (l.hd, r.hd) with
  | (Column.I a | Column.O a), (Column.I b | Column.O b)
    when Column.ty l.hd = Column.ty r.hd ->
    a == b
    || (Array.length a = Array.length b
       &&
       let ok = ref true in
       let i = ref 0 in
       while !ok && !i < Array.length a do
         if a.(!i) <> b.(!i) then ok := false;
         incr i
       done;
       !ok)
  | _ -> false


(* {1 Unary operators} *)

let reverse b = { hd = b.tl; tl = b.hd }
let mirror b = { hd = b.hd; tl = b.hd }
let mark b base = { hd = b.hd; tl = Column.dense base (count b) }
let number_head b base = { hd = Column.dense base (count b); tl = b.hd }
let number_tail b base = { hd = Column.dense base (count b); tl = b.tl }
let project b a = { hd = b.hd; tl = Column.const a (count b) }

let calc1 op b =
  let n = count b in
  let fast =
    match (op, b.tl) with
    | Not, Column.B a -> Some (Column.B (bools n (fun i -> not a.(i))))
    | Neg, Column.I a -> Some (Column.I (ints n (fun i -> -a.(i))))
    | Neg, Column.F a -> Some (Column.F (floats n (fun i -> -.a.(i))))
    | Abs, Column.I a -> Some (Column.I (ints n (fun i -> abs a.(i))))
    | Abs, Column.F a -> Some (Column.F (floats n (fun i -> Float.abs a.(i))))
    | ToFlt, Column.I a -> Some (Column.F (floats n (fun i -> Float.of_int a.(i))))
    | ToFlt, Column.F a -> Some (Column.F (Array.copy a))
    | Log, Column.I a -> Some (Column.F (floats n (fun i -> log (Float.of_int a.(i)))))
    | Log, Column.F a -> Some (Column.F (floats n (fun i -> log a.(i))))
    | Exp, Column.I a -> Some (Column.F (floats n (fun i -> exp (Float.of_int a.(i)))))
    | Exp, Column.F a -> Some (Column.F (floats n (fun i -> exp a.(i))))
    | Sqrt, Column.I a -> Some (Column.F (floats n (fun i -> sqrt (Float.of_int a.(i)))))
    | Sqrt, Column.F a -> Some (Column.F (floats n (fun i -> sqrt a.(i))))
    | _ -> None
  in
  match fast with
  | Some out -> { hd = b.hd; tl = out }
  | None ->
    (* unsupported operand types: boxed loop for its error reporting *)
    let n = count b in
    let out = Column.make (unop_result_ty op (tty b)) n in
    for i = 0 to n - 1 do
      Column.set out i (apply_unop op (tail_at b i))
    done;
    { hd = b.hd; tl = out }

let calc_const op b a =
  let n = count b in
  let fast =
    match (b.tl, a) with
    | Column.I arr, Atom.Int v -> (
      match (op, int_binop op) with
      | _, Some f -> Some (Column.I (ints n (fun i -> f arr.(i) v)))
      | CmpOp c, _ ->
        let f = int_cmp c in
        Some (Column.B (bools n (fun i -> f arr.(i) v)))
      | _ -> None)
    | Column.F arr, Atom.Flt v -> (
      match (op, float_binop op) with
      | _, Some f -> Some (Column.F (floats n (fun i -> f arr.(i) v)))
      | CmpOp c, _ ->
        let f = float_cmp c in
        Some (Column.B (bools n (fun i -> f arr.(i) v)))
      | _ -> None)
    | _ -> None
  in
  match fast with
  | Some out -> { hd = b.hd; tl = out }
  | None ->
    let n = count b in
    let out = Column.make (binop_result_ty op (tty b) (Atom.type_of a)) n in
    for i = 0 to n - 1 do
      Column.set out i (apply_binop op (tail_at b i) a)
    done;
    { hd = b.hd; tl = out }

let const_calc op a b =
  let n = count b in
  let fast =
    match (a, b.tl) with
    | Atom.Int v, Column.I arr -> (
      match (op, int_binop op) with
      | _, Some f -> Some (Column.I (ints n (fun i -> f v arr.(i))))
      | CmpOp c, _ ->
        let f = int_cmp c in
        Some (Column.B (bools n (fun i -> f v arr.(i))))
      | _ -> None)
    | Atom.Flt v, Column.F arr -> (
      match (op, float_binop op) with
      | _, Some f -> Some (Column.F (floats n (fun i -> f v arr.(i))))
      | CmpOp c, _ ->
        let f = float_cmp c in
        Some (Column.B (bools n (fun i -> f v arr.(i))))
      | _ -> None)
    | _ -> None
  in
  match fast with
  | Some out -> { hd = b.hd; tl = out }
  | None ->
    let n = count b in
    let out = Column.make (binop_result_ty op (Atom.type_of a) (tty b)) n in
    for i = 0 to n - 1 do
      Column.set out i (apply_binop op a (tail_at b i))
    done;
    { hd = b.hd; tl = out }

let take b idx =
  let hd, tl = Column.gather_pair b.hd idx b.tl idx in
  { hd; tl }

let slice b pos len =
  let n = count b in
  let pos = max 0 pos in
  let len = max 0 (min len (n - pos)) in
  take b (Array.init len (fun i -> pos + i))

let column_comparator c =
  match c with
  | Column.I a | Column.O a -> fun i j -> Int.compare a.(i) a.(j)
  | Column.F a -> fun i j -> Float.compare a.(i) a.(j)
  | Column.S a -> fun i j -> String.compare a.(i) a.(j)
  | Column.B a -> fun i j -> Bool.compare a.(i) a.(j)

(* Row order by tail value ([desc] flips it), ties by position: a
   total order, so every sort or selection under it agrees. *)
let tail_order ~desc c =
  let cmp = column_comparator c in
  fun i j ->
    let r = if desc then cmp j i else cmp i j in
    if r <> 0 then r else Int.compare i j

let sorted_indices ?(desc = false) c =
  let idx = Array.init (Column.length c) (fun i -> i) in
  Array.sort (tail_order ~desc c) idx;
  idx

(* The one top-k routine: the [k] least of [idx.(lo)] .. [idx.(hi-1)]
   under the total order [cmp], ascending.  A max-heap holds the [k]
   least seen so far, so each further row costs one comparison with
   the root unless it displaces it: O(n log k), where sorting all [n]
   rows to keep [k] is O(n log n).  Under a total order the result is
   the sorted prefix, row for row. *)
let smallest cmp k (idx : int array) lo hi =
  let k = max 0 (min k (hi - lo)) in
  if k = hi - lo then begin
    let a = Array.sub idx lo k in
    Array.stable_sort cmp a;
    a
  end
  else if k = 0 then [||]
  else begin
    let h = Array.sub idx lo k in
    let rec sift i =
      let l = (2 * i) + 1 in
      if l < k then begin
        let c = if l + 1 < k && cmp h.(l + 1) h.(l) > 0 then l + 1 else l in
        if cmp h.(c) h.(i) > 0 then begin
          let t = h.(i) in
          h.(i) <- h.(c);
          h.(c) <- t;
          sift c
        end
      end
    in
    for i = (k / 2) - 1 downto 0 do
      sift i
    done;
    for p = lo + k to hi - 1 do
      let x = idx.(p) in
      if cmp x h.(0) < 0 then begin
        h.(0) <- x;
        sift 0
      end
    done;
    Array.stable_sort cmp h;
    h
  end

let sort_tail ?(desc = false) b = take b (sorted_indices ~desc b.tl)

let topn ?(desc = true) b n =
  let m = count b in
  take b (smallest (tail_order ~desc b.tl) n (Array.init m (fun i -> i)) 0 m)

let unique b =
  let seen = AtomTbl.create (count b) in
  let keep = Ibuf.create () in
  for i = 0 to count b - 1 do
    let h = head_at b i in
    let tails = try AtomTbl.find seen h with Not_found -> [] in
    let t = tail_at b i in
    if not (List.exists (Atom.equal t) tails) then begin
      AtomTbl.replace seen h (t :: tails);
      Ibuf.push keep i
    end
  done;
  take b (Ibuf.finish keep)

let unique_head b =
  match b.hd with
  | Column.I hs | Column.O hs ->
    let seen = Hashtbl.create (Array.length hs) in
    let keep = Ibuf.create () in
    Array.iteri
      (fun i h ->
        if not (Hashtbl.mem seen h) then begin
          Hashtbl.add seen h ();
          Ibuf.push keep i
        end)
      hs;
    take b (Ibuf.finish keep)
  | _ ->
    let seen = AtomTbl.create (count b) in
    let keep = Ibuf.create () in
    for i = 0 to count b - 1 do
      let h = head_at b i in
      if not (AtomTbl.mem seen h) then begin
        AtomTbl.add seen h ();
        Ibuf.push keep i
      end
    done;
    take b (Ibuf.finish keep)

(* {1 Selections} *)

(* Rows [lo, hi) satisfying [pred], ascending, collected from a buffer
   of [cap] cells. *)
let keep_rows cap pred lo hi =
  let keep = Ibuf.with_capacity cap in
  for i = lo to hi - 1 do
    if pred i then Ibuf.push keep i
  done;
  Ibuf.finish keep

(* Range results concatenated in range order; a single part is taken
   as is. *)
let concat_parts = function [| p |] -> p | parts -> Array.concat (Array.to_list parts)

(* One pass, for predicates that carry state from row to row (the
   merge-scan membership test). *)
let select_indices pred b = take b (keep_rows 16 pred 0 (count b))

(* The selections proper: a pure predicate scanned range by range.  A
   range of a split scan reserves room for all its rows, so that no
   domain regrows its buffer (regrowing on both domains at once cost a
   2-domain scan of 100k rows about 15% on a 2-core host); a
   whole-column scan grows from 16 cells, as it always did. *)
let scan pred b =
  let n = count b in
  take b
    (concat_parts
       (Parkernel.ranges n (fun lo hi -> keep_rows (if hi - lo < n then hi - lo else 16) pred lo hi)))

let select_cmp b c a =
  match (b.tl, a) with
  | (Column.I arr | Column.O arr), (Atom.Int v | Atom.Oid v)
    when Atom.type_of a = Column.ty b.tl ->
    let f = int_cmp c in
    scan (fun i -> f arr.(i) v) b
  | Column.F arr, Atom.Flt v ->
    let f = float_cmp c in
    scan (fun i -> f arr.(i) v) b
  | Column.S arr, Atom.Str v ->
    let f = int_cmp c in
    scan (fun i -> f (String.compare arr.(i) v) 0) b
  | _ -> scan (fun i -> apply_cmp c (tail_at b i) a) b

let select_range b lo hi =
  match (b.tl, lo, hi) with
  | (Column.I arr | Column.O arr), (Atom.Int l | Atom.Oid l), (Atom.Int h | Atom.Oid h)
    when Atom.type_of lo = Column.ty b.tl && Atom.type_of hi = Column.ty b.tl ->
    scan (fun i -> l <= arr.(i) && arr.(i) <= h) b
  | Column.F arr, Atom.Flt l, Atom.Flt h ->
    scan
      (fun i -> Float.compare l arr.(i) <= 0 && Float.compare arr.(i) h <= 0)
      b
  | Column.S arr, Atom.Str l, Atom.Str h ->
    scan
      (fun i -> String.compare l arr.(i) <= 0 && String.compare arr.(i) h <= 0)
      b
  | _ ->
    scan
      (fun i ->
        let t = tail_at b i in
        Atom.compare lo t <= 0 && Atom.compare t hi <= 0)
      b

let select_bool b =
  match b.tl with
  | Column.B arr -> scan (fun i -> arr.(i)) b
  | _ -> invalid_arg "Bat.select_bool: tail is not boolean"

let filter pred b = select_indices (fun i -> pred (head_at b i) (tail_at b i)) b

(* {1 Binary operators} *)

(* Index of a column: value -> positions in order. *)
let positions_index c =
  let tbl = AtomTbl.create (Column.length c) in
  for i = Column.length c - 1 downto 0 do
    let v = Column.get c i in
    let rest = try AtomTbl.find tbl v with Not_found -> [] in
    AtomTbl.replace tbl v (i :: rest)
  done;
  tbl

let membership_index c =
  let tbl = AtomTbl.create (Column.length c) in
  for i = 0 to Column.length c - 1 do
    AtomTbl.replace tbl (Column.get c i) ()
  done;
  tbl

(* {2 Join matches}

   Both joins compute row pairs first — for every left row, its
   matching right rows in right order — and then gather both output
   columns from them, unboxed.  With [outer], a left row without a
   match is paired with the default slot [count r], one past the right
   rows: the left outer join gathers its tail from the right tail with
   the default appended. *)

let generic_matches ~outer l r =
  let idx = positions_index r.hd in
  let nr = count r in
  let li = Ibuf.create () and rj = Ibuf.create () in
  for i = 0 to count l - 1 do
    match AtomTbl.find_opt idx (tail_at l i) with
    | None ->
      if outer then begin
        Ibuf.push li i;
        Ibuf.push rj nr
      end
    | Some js ->
      List.iter
        (fun j ->
          Ibuf.push li i;
          Ibuf.push rj j)
        js
  done;
  (Ibuf.finish li, Ibuf.finish rj)

(* First position in the ascending [rh] whose value is [>= v]. *)
let lower_bound rh v =
  let lo = ref 0 and hi = ref (Array.length rh) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if rh.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The build side is indexed once; the probe over the left rows runs
   range by range, each range emitting its matches in (left row, right
   row) order, so the parts concatenate to the sequential sequence. *)
let int_matches ~outer lt rh =
  let nr = Array.length rh in
  let[@inline] miss li rj i =
    if outer then begin
      Ibuf.push li i;
      Ibuf.push rj nr
    end
  in
  let probe : Ibuf.t -> Ibuf.t -> int -> int -> unit =
    match dense_base rh with
    | Some base ->
      (* void head: position arithmetic, keys are unique *)
      fun li rj lo hi ->
        for i = lo to hi - 1 do
          let j = lt.(i) - base in
          if j >= 0 && j < nr then begin
            Ibuf.push li i;
            Ibuf.push rj j
          end
          else miss li rj i
        done
    | None when is_nondecreasing lt && is_strictly_increasing rh ->
      (* merge join over sorted oid columns *)
      fun li rj lo hi ->
        let j = ref (if lo = 0 then 0 else lower_bound rh lt.(lo)) in
        for i = lo to hi - 1 do
          while !j < nr && rh.(!j) < lt.(i) do
            incr j
          done;
          if !j < nr && rh.(!j) = lt.(i) then begin
            Ibuf.push li i;
            Ibuf.push rj !j
          end
          else miss li rj i
        done
    | None ->
      let idx = Hashtbl.create nr in
      for j = nr - 1 downto 0 do
        let rest = try Hashtbl.find idx rh.(j) with Not_found -> [] in
        Hashtbl.replace idx rh.(j) (j :: rest)
      done;
      fun li rj lo hi ->
        for i = lo to hi - 1 do
          match Hashtbl.find_opt idx lt.(i) with
          | None -> miss li rj i
          | Some js ->
            List.iter
              (fun j ->
                Ibuf.push li i;
                Ibuf.push rj j)
              js
        done
  in
  let n = Array.length lt in
  let parts =
    Parkernel.ranges n (fun lo hi ->
        (* as in [scan]: a range of a split probe reserves a match per
           row; an outer join has at least one *)
        let cap = if outer || hi - lo < n then hi - lo else 16 in
        let li = Ibuf.with_capacity cap and rj = Ibuf.with_capacity cap in
        probe li rj lo hi;
        (Ibuf.finish li, Ibuf.finish rj))
  in
  match parts with
  | [| p |] -> p
  | _ -> (concat_parts (Array.map fst parts), concat_parts (Array.map snd parts))

(* Int and oid columns match by value, whatever their kinds. *)
let matches ~outer l r =
  match (l.tl, r.hd) with
  | (Column.I lt | Column.O lt), (Column.I rh | Column.O rh) -> int_matches ~outer lt rh
  | _ -> generic_matches ~outer l r

let join l r =
  if tty l <> hty r then
    invalid_arg
      (Printf.sprintf "Bat.join: tail type %s does not match head type %s"
         (Atom.ty_name (tty l)) (Atom.ty_name (hty r)));
  let li, rj = matches ~outer:false l r in
  let hd, tl = Column.gather_pair l.hd li r.tl rj in
  { hd; tl }

let leftouterjoin l r default =
  if Atom.type_of default <> tty r then
    invalid_arg "Bat.leftouterjoin: default type does not match right tail";
  let li, rj = matches ~outer:true l r in
  let hd, tl = Column.gather_pair l.hd li (Column.append r.tl (Column.const default 1)) rj in
  { hd; tl }

let int_members arr =
  let tbl = Hashtbl.create (Array.length arr) in
  Array.iter (fun v -> Hashtbl.replace tbl v ()) arr;
  tbl

(* membership predicate over the right-hand heads; the caller probes
   with non-decreasing values when [probe_sorted] holds, enabling a
   merge scan over sorted survivors *)
let int_membership_pred ?(probe_sorted = false) rh =
  match dense_base rh with
  | Some base ->
    let n = Array.length rh in
    fun v ->
      let j = v - base in
      j >= 0 && j < n
  | None ->
    if probe_sorted && is_nondecreasing rh then begin
      let n = Array.length rh in
      let j = ref 0 in
      fun v ->
        while !j < n && rh.(!j) < v do
          incr j
        done;
        !j < n && rh.(!j) = v
    end
    else begin
      let members = int_members rh in
      fun v -> Hashtbl.mem members v
    end

(* The rows of a void head (row [i] holds [base + i], [n] rows) whose
   value occurs in [rh], ascending: each right head finds its row by the
   arithmetic of [int_matches] and marks it once, so a k-row right side
   costs k probes and one pass over the marks, not n membership tests. *)
let dense_rows_in base n rh =
  let marked = Bytes.make n '\000' in
  let hits = ref 0 in
  Array.iter
    (fun v ->
      let i = v - base in
      if i >= 0 && i < n && Bytes.get marked i = '\000' then begin
        Bytes.set marked i '\001';
        incr hits
      end)
    rh;
  let rows = Array.make !hits 0 in
  let k = ref 0 and i = ref 0 in
  while !k < !hits do
    if Bytes.get marked !i <> '\000' then begin
      rows.(!k) <- !i;
      incr k
    end;
    incr i
  done;
  rows

let semijoin l r =
  match (l.hd, r.hd) with
  | (Column.I lh | Column.O lh), (Column.I rh | Column.O rh) -> (
    match dense_base lh with
    | Some base -> take l (dense_rows_in base (Array.length lh) rh)
    | None ->
      let mem = int_membership_pred ~probe_sorted:(is_nondecreasing lh) rh in
      select_indices (fun i -> mem lh.(i)) l)
  | _ ->
    let members = membership_index r.hd in
    select_indices (fun i -> AtomTbl.mem members (head_at l i)) l

let antijoin l r =
  match (l.hd, r.hd) with
  | (Column.I lh | Column.O lh), (Column.I rh | Column.O rh) ->
    let mem = int_membership_pred ~probe_sorted:(is_nondecreasing lh) rh in
    select_indices (fun i -> not (mem lh.(i))) l
  | _ ->
    let members = membership_index r.hd in
    select_indices (fun i -> not (AtomTbl.mem members (head_at l i))) l

let kdiff = antijoin
let kintersect = semijoin

let append a b =
  if hty a <> hty b || tty a <> tty b then invalid_arg "Bat.append: type mismatch";
  { hd = Column.append a.hd b.hd; tl = Column.append a.tl b.tl }

let kunion l r = append l (antijoin r l)

let pair_key h t = (Atom.hash h * 31) lxor Atom.hash t

module PairTbl = Hashtbl.Make (struct
  type t = Atom.t * Atom.t

  let equal (h1, t1) (h2, t2) = Atom.equal h1 h2 && Atom.equal t1 t2
  let hash (h, t) = pair_key h t
end)

let pair_set b =
  let tbl = PairTbl.create (count b) in
  iter (fun h t -> PairTbl.replace tbl (h, t) ()) b;
  tbl

let pair_diff l r =
  let rs = pair_set r in
  select_indices (fun i -> not (PairTbl.mem rs (head_at l i, tail_at l i))) l

let pair_inter l r =
  let rs = pair_set r in
  select_indices (fun i -> PairTbl.mem rs (head_at l i, tail_at l i)) l

let pair_union l r = unique (append l r)


let first_position_index c =
  let tbl = AtomTbl.create (Column.length c) in
  for i = 0 to Column.length c - 1 do
    let v = Column.get c i in
    if not (AtomTbl.mem tbl v) then AtomTbl.add tbl v i
  done;
  tbl

let calc2_generic op l r positions =
  let out_ty = binop_result_ty op (tty l) (tty r) in
  let hb = Column.Builder.create (hty l) in
  let tb = Column.Builder.create out_ty in
  for i = 0 to count l - 1 do
    match positions i with
    | None -> ()
    | Some j ->
      Column.Builder.add hb (head_at l i);
      Column.Builder.add tb (apply_binop op (tail_at l i) (tail_at r j))
  done;
  { hd = Column.Builder.finish hb; tl = Column.Builder.finish tb }

let calc2 op l r =
  if count l = count r && same_int_heads l r then
    (* row-aligned operands: positional typed loop when available *)
    match calc_pos_tails op l.tl r.tl with
    | Some out -> { hd = l.hd; tl = out }
    | None -> calc2_generic op l r (fun i -> Some i)
  else
    match (l.hd, r.hd) with
    | (Column.I lh | Column.O lh), (Column.I rh | Column.O rh) ->
      let idx = Hashtbl.create (Array.length rh) in
      for j = Array.length rh - 1 downto 0 do
        if not (Hashtbl.mem idx rh.(j)) then Hashtbl.add idx rh.(j) j
      done;
      calc2_generic op l r (fun i -> Hashtbl.find_opt idx lh.(i))
    | _ ->
      let idx = first_position_index r.hd in
      calc2_generic op l r (fun i -> AtomTbl.find_opt idx (head_at l i))

let calc2_pos op l r =
  if count l <> count r then invalid_arg "Bat.calc2_pos: length mismatch";
  match calc_pos_tails op l.tl r.tl with
  | Some out -> { hd = l.hd; tl = out }
  | None ->
    let out = Column.make (binop_result_ty op (tty l) (tty r)) (count l) in
    for i = 0 to count l - 1 do
      Column.set out i (apply_binop op (tail_at l i) (tail_at r i))
    done;
    { hd = l.hd; tl = out }

(* {1 Grouping and aggregation} *)

type acc = { mutable cnt : int; mutable v : Atom.t option; mutable fsum : float }

let aggr_step op acc t =
  acc.cnt <- acc.cnt + 1;
  (match op with
  | Count -> ()
  | Avg -> acc.fsum <- acc.fsum +. Atom.as_float t
  | Sum | Prod | Min | Max ->
    let combine =
      match op with
      | Sum -> apply_binop Add
      | Prod -> apply_binop Mul
      | Min -> apply_binop MinOp
      | Max -> apply_binop MaxOp
      | Count | Avg -> assert false
    in
    acc.v <- Some (match acc.v with None -> t | Some v -> combine v t))

let aggr_finish op acc =
  match op with
  | Count -> Atom.Int acc.cnt
  | Avg ->
    if acc.cnt = 0 then invalid_arg "Bat.aggr: avg of empty input"
    else Atom.Flt (acc.fsum /. Float.of_int acc.cnt)
  | Sum | Prod | Min | Max -> (
    match acc.v with
    | Some v -> v
    | None ->
      (* float sums may have been accumulated unboxed *)
      if op = Sum && acc.cnt > 0 then Atom.Flt acc.fsum
      else invalid_arg "Bat.aggr: min/max of empty input")

let aggr_neutral op ty =
  match (op, ty) with
  | Sum, Atom.TInt -> Some (Atom.Int 0)
  | Sum, Atom.TFlt -> Some (Atom.Flt 0.0)
  | Prod, Atom.TInt -> Some (Atom.Int 1)
  | Prod, Atom.TFlt -> Some (Atom.Flt 1.0)
  | Count, _ -> Some (Atom.Int 0)
  | _ -> None

let aggr_result_ty op ty =
  match op with
  | Count -> Atom.TInt
  | Avg -> Atom.TFlt
  | Sum | Prod | Min | Max -> ty

(* Slot lookup for unboxed int/oid grouping keys [hs.(lo..hi-1)]: when
   their range is a small window the slot map is a flat array
   (Monet-style) instead of a hash table. *)
let int_slot_lookup hs lo hi =
  let kmin = ref max_int and kmax = ref min_int in
  for i = lo to hi - 1 do
    let h = hs.(i) in
    if h < !kmin then kmin := h;
    if h > !kmax then kmax := h
  done;
  if hi > lo && !kmax - !kmin < (4 * (hi - lo)) + 64 then begin
    let table = Array.make (!kmax - !kmin + 1) (-1) in
    let base = !kmin in
    (* slot or -1: an option here would box once per row *)
    ((fun h -> table.(h - base)), fun h s -> table.(h - base) <- s)
  end
  else begin
    let tbl = Hashtbl.create (hi - lo) in
    ( (fun h -> match Hashtbl.find_opt tbl h with Some s -> s | None -> -1),
      fun h s -> Hashtbl.add tbl h s )
  end

(* One grouping pass over rows [lo, hi): the distinct keys in
   first-occurrence order, and per key an accumulator seeded with
   [init i] and folded with [comb acc (value i)].  Typed twice, so that
   int and float accumulators stay unboxed. *)
let group_pass_int hs init value comb lo hi =
  let find_slot, add_slot = int_slot_lookup hs lo hi in
  let keys = Ibuf.create () and vals = Ibuf.create () in
  for i = lo to hi - 1 do
    let h = hs.(i) in
    let s = find_slot h in
    if s >= 0 then Ibuf.set vals s (comb (Ibuf.get vals s) (value i))
    else begin
      add_slot h (Ibuf.len keys);
      Ibuf.push keys h;
      Ibuf.push vals (init i)
    end
  done;
  (Ibuf.finish keys, Ibuf.finish vals)

let group_pass_flt hs init value comb lo hi =
  let find_slot, add_slot = int_slot_lookup hs lo hi in
  let keys = Ibuf.create () and vals = Fbuf.create () in
  for i = lo to hi - 1 do
    let h = hs.(i) in
    let s = find_slot h in
    if s >= 0 then Fbuf.set vals s (comb (Fbuf.get vals s) (value i))
    else begin
      add_slot h (Ibuf.len keys);
      Ibuf.push keys h;
      Fbuf.push vals (init i)
    end
  done;
  (Ibuf.finish keys, Fbuf.finish vals)

(* Range by range, for an associative [comb]: each range groups its
   rows, and the partial groups are merged in range order by the same
   pass over the concatenated partial keys and accumulators — so group
   order stays the global first occurrence and the accumulators are
   the sequential ones. *)
let group_ranges pass hs value comb =
  match Parkernel.ranges (Array.length hs) (pass hs value value comb) with
  | [| part |] -> part
  | parts ->
    let ks = concat_parts (Array.map fst parts) and vs = concat_parts (Array.map snd parts) in
    pass ks (Array.get vs) (Array.get vs) comb 0 (Array.length ks)

(* Grouped aggregation over int/oid heads: one constructor match per
   column, then monomorphic loops over unboxed keys and accumulators.
   Float [Sum] and [Avg] run as one range (float addition is not
   associative).  Only operand combinations without a typed kernel fall
   back to the boxed atom loop (non-numeric tails keep its error
   behavior). *)
let group_aggr_int_head op b hs =
  let n = Array.length hs in
  let mk_keys ka =
    match Column.ty b.hd with Atom.TOid -> Column.O ka | _ -> Column.I ka
  in
  let ints value comb =
    let ks, vs = group_ranges group_pass_int hs value comb in
    Some (ks, Column.I vs)
  in
  let flts value comb =
    let ks, vs = group_ranges group_pass_flt hs value comb in
    Some (ks, Column.F vs)
  in
  let fast =
    match (op, b.tl) with
    | Count, _ -> ints (fun _ -> 1) ( + )
    | Sum, Column.I ts -> ints (Array.get ts) ( + )
    | Min, Column.I ts -> ints (Array.get ts) min
    | Max, Column.I ts -> ints (Array.get ts) max
    | Prod, Column.I ts -> ints (Array.get ts) ( * )
    | Sum, Column.F ts ->
      (* [0.0 +. v] seeds a group as the long-standing 0-seeded float
         accumulation of the boxed path did, bit for bit *)
      let ks, vs = group_pass_flt hs (fun i -> 0.0 +. ts.(i)) (Array.get ts) ( +. ) 0 n in
      Some (ks, Column.F vs)
    | Min, Column.F ts -> flts (Array.get ts) Float.min
    | Max, Column.F ts -> flts (Array.get ts) Float.max
    | Avg, (Column.I _ | Column.F _) ->
      let value =
        match b.tl with
        | Column.F ts -> Array.get ts
        | Column.I ts -> fun i -> Float.of_int ts.(i)
        | _ -> assert false
      in
      let find_slot, add_slot = int_slot_lookup hs 0 n in
      let keys = Ibuf.create () in
      let sums = Fbuf.create () and cnts = Ibuf.create () in
      for i = 0 to n - 1 do
        let h = hs.(i) in
        let s = find_slot h in
        if s >= 0 then begin
          Fbuf.set sums s (Fbuf.get sums s +. value i);
          Ibuf.set cnts s (Ibuf.get cnts s + 1)
        end
        else begin
          add_slot h (Ibuf.len keys);
          Ibuf.push keys h;
          Fbuf.push sums (0.0 +. value i);
          Ibuf.push cnts 1
        end
      done;
      let g = Ibuf.len keys in
      Some
        ( Ibuf.finish keys,
          Column.F
            (Array.init g (fun s -> Fbuf.get sums s /. Float.of_int (Ibuf.get cnts s))) )
    | _ -> None
  in
  match fast with
  | Some (ks, tl) -> { hd = mk_keys ks; tl }
  | None ->
    let find_slot, add_slot = int_slot_lookup hs 0 n in
    let keys = Ibuf.create () in
    let accs = ref (Array.make 16 { cnt = 0; v = None; fsum = 0.0 }) in
    let nslots = ref 0 in
    let new_slot () =
      let s = !nslots in
      if s = Array.length !accs then begin
        let fresh = Array.make (2 * s) { cnt = 0; v = None; fsum = 0.0 } in
        Array.blit !accs 0 fresh 0 s;
        accs := fresh
      end;
      !accs.(s) <- { cnt = 0; v = None; fsum = 0.0 };
      incr nslots;
      s
    in
    for i = 0 to n - 1 do
      let h = hs.(i) in
      let s =
        let s = find_slot h in
        if s >= 0 then s
        else begin
          let s = new_slot () in
          add_slot h s;
          Ibuf.push keys h;
          s
        end
      in
      aggr_step op !accs.(s) (tail_at b i)
    done;
    let out = Column.make (aggr_result_ty op (tty b)) !nslots in
    for s = 0 to !nslots - 1 do
      Column.set out s (aggr_finish op !accs.(s))
    done;
    { hd = mk_keys (Ibuf.finish keys); tl = out }

let group_aggr op b =
  match b.hd with
  | Column.I hs | Column.O hs -> group_aggr_int_head op b hs
  | _ ->
    let keys = Column.Builder.create (hty b) in
    let accs = ref (Array.make 16 { cnt = 0; v = None; fsum = 0.0 }) in
    let nslots = ref 0 in
    let new_slot () =
      let s = !nslots in
      if s = Array.length !accs then begin
        let fresh = Array.make (2 * s) { cnt = 0; v = None; fsum = 0.0 } in
        Array.blit !accs 0 fresh 0 s;
        accs := fresh
      end;
      !accs.(s) <- { cnt = 0; v = None; fsum = 0.0 };
      incr nslots;
      s
    in
    let slot_of = AtomTbl.create (count b) in
    iter
      (fun h t ->
        let slot =
          match AtomTbl.find_opt slot_of h with
          | Some s -> s
          | None ->
            let s = new_slot () in
            AtomTbl.add slot_of h s;
            Column.Builder.add keys h;
            s
        in
        aggr_step op !accs.(slot) t)
      b;
    let out = Column.make (aggr_result_ty op (tty b)) !nslots in
    for s = 0 to !nslots - 1 do
      Column.set out s (aggr_finish op !accs.(s))
    done;
    { hd = Column.Builder.finish keys; tl = out }

(* A fold over non-empty [0..n-1]: each range folds from its first
   cell, and the range results combine in range order with the same
   associative [comb]. *)
let fold_ranges n comb fold =
  let parts = Parkernel.ranges n fold in
  let acc = ref parts.(0) in
  for k = 1 to Array.length parts - 1 do
    acc := comb !acc parts.(k)
  done;
  !acc

let aggr_all op b =
  let n = count b in
  if n = 0 then
    match aggr_neutral op (tty b) with
    | Some v -> v
    | None -> invalid_arg "Bat.aggr_all: empty input for min/max/avg"
  else begin
    (* monomorphic folds for the numeric tails; the boxed loop remains
       for compare-based min/max over strings/bools/oids *)
    let fast =
      match (op, b.tl) with
      | Count, _ -> Some (Atom.Int n)
      | Sum, Column.I ts ->
        Some
          (Atom.Int
             (fold_ranges n ( + ) (fun lo hi ->
                  let s = ref ts.(lo) in
                  for i = lo + 1 to hi - 1 do
                    s := !s + ts.(i)
                  done;
                  !s)))
      | Prod, Column.I ts ->
        Some
          (Atom.Int
             (fold_ranges n ( * ) (fun lo hi ->
                  let s = ref ts.(lo) in
                  for i = lo + 1 to hi - 1 do
                    s := !s * ts.(i)
                  done;
                  !s)))
      | Min, Column.I ts ->
        Some
          (Atom.Int
             (fold_ranges n min (fun lo hi ->
                  let s = ref ts.(lo) in
                  for i = lo + 1 to hi - 1 do
                    s := min !s ts.(i)
                  done;
                  !s)))
      | Max, Column.I ts ->
        Some
          (Atom.Int
             (fold_ranges n max (fun lo hi ->
                  let s = ref ts.(lo) in
                  for i = lo + 1 to hi - 1 do
                    s := max !s ts.(i)
                  done;
                  !s)))
      | Min, Column.F ts ->
        Some
          (Atom.Flt
             (fold_ranges n Float.min (fun lo hi ->
                  let s = ref ts.(lo) in
                  for i = lo + 1 to hi - 1 do
                    s := Float.min !s ts.(i)
                  done;
                  !s)))
      | Max, Column.F ts ->
        Some
          (Atom.Flt
             (fold_ranges n Float.max (fun lo hi ->
                  let s = ref ts.(lo) in
                  for i = lo + 1 to hi - 1 do
                    s := Float.max !s ts.(i)
                  done;
                  !s)))
      (* float Sum/Prod/Avg fold as one range: float arithmetic is not
         associative *)
      | Sum, Column.F ts ->
        let s = ref ts.(0) in
        for i = 1 to n - 1 do
          s := !s +. ts.(i)
        done;
        Some (Atom.Flt !s)
      | Prod, Column.F ts ->
        let s = ref ts.(0) in
        for i = 1 to n - 1 do
          s := !s *. ts.(i)
        done;
        Some (Atom.Flt !s)
      | Avg, Column.I ts ->
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          s := !s +. Float.of_int ts.(i)
        done;
        Some (Atom.Flt (!s /. Float.of_int n))
      | Avg, Column.F ts ->
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          s := !s +. ts.(i)
        done;
        Some (Atom.Flt (!s /. Float.of_int n))
      | _ -> None
    in
    match fast with
    | Some v -> v
    | None ->
      let acc = { cnt = 0; v = None; fsum = 0.0 } in
      iter (fun _ t -> aggr_step op acc t) b;
      aggr_finish op acc
  end

(* Position of each [link] row's value in [key]: the first [key] row
   with the same head, or -1.  Oid/int heads of one kind are matched
   without boxing (by position arithmetic on a dense key head). *)
let key_positions link key =
  let n = count link in
  let pos = Array.make n (-1) in
  (match (link.hd, key.hd) with
  | Column.O lh, Column.O kh | Column.I lh, Column.I kh -> (
    match dense_base kh with
    | Some base ->
      let nk = Array.length kh in
      for i = 0 to n - 1 do
        let j = lh.(i) - base in
        if j >= 0 && j < nk then pos.(i) <- j
      done
    | None ->
      let first = Hashtbl.create (Array.length kh) in
      for j = Array.length kh - 1 downto 0 do
        Hashtbl.replace first kh.(j) j
      done;
      for i = 0 to n - 1 do
        match Hashtbl.find_opt first lh.(i) with Some j -> pos.(i) <- j | None -> ()
      done)
  | _ ->
    let first = first_position_index key.hd in
    for i = 0 to n - 1 do
      match AtomTbl.find_opt first (head_at link i) with Some j -> pos.(i) <- j | None -> ()
    done);
  pos

(* The order is total: link tail, then key value (present before
   missing; [desc] flips present values), then row position.  Rows are
   grouped into runs of equal tails in tail order (already so when the
   tails are sorted, as a set's link usually is), and each run keeps
   its [limit] least rows through {!smallest}.  Each row's tail and
   value are read once, not once per comparison; int/oid tails and
   float keys compare unboxed. *)
let group_rank ?(desc = false) ?limit ~link key =
  let n = count link in
  let pos = key_positions link key in
  let c_tail =
    match link.tl with
    | Column.I lt | Column.O lt -> fun i j -> Int.compare lt.(i) lt.(j)
    | _ ->
      let tails = Array.init n (tail_at link) in
      fun i j -> Atom.compare tails.(i) tails.(j)
  in
  let sorted =
    match link.tl with
    | Column.I lt | Column.O lt -> is_nondecreasing lt
    | _ ->
      let i = ref 1 in
      while !i < n && c_tail (!i - 1) !i <= 0 do
        incr i
      done;
      !i >= n
  in
  (* the order within a run, the heap comparator of {!smallest}: one
     closure whose float-key case compares unboxed in place *)
  let within =
    match key.tl with
    | Column.F kt ->
      let v = Array.make n 0.0 in
      for i = 0 to n - 1 do
        if pos.(i) >= 0 then v.(i) <- kt.(pos.(i))
      done;
      fun i j ->
        let pi = pos.(i) >= 0 and pj = pos.(j) >= 0 in
        let c =
          if pi && pj then if desc then Float.compare v.(j) v.(i) else Float.compare v.(i) v.(j)
          else Bool.compare pj pi
        in
        if c <> 0 then c else Int.compare i j
    | _ ->
      let v = Array.map (fun p -> if p >= 0 then tail_at key p else Atom.Int 0) pos in
      fun i j ->
        let pi = pos.(i) >= 0 and pj = pos.(j) >= 0 in
        let c =
          if pi && pj then if desc then Atom.compare v.(j) v.(i) else Atom.compare v.(i) v.(j)
          else Bool.compare pj pi
        in
        if c <> 0 then c else Int.compare i j
  in
  let order = Array.make n 0 in
  for i = 1 to n - 1 do
    order.(i) <- i
  done;
  if not sorted then Array.stable_sort c_tail order;
  let k = Option.value limit ~default:n in
  let cap = min n (max k 0) in
  let rows = Ibuf.with_capacity cap and ranks = Ibuf.with_capacity cap in
  let lo = ref 0 in
  while !lo < n do
    let hi = ref (!lo + 1) in
    while !hi < n && c_tail order.(!lo) order.(!hi) = 0 do
      incr hi
    done;
    Array.iteri
      (fun r row ->
        Ibuf.push rows row;
        Ibuf.push ranks r)
      (smallest within k order !lo !hi);
    lo := !hi
  done;
  { hd = Column.gather link.hd (Ibuf.finish rows); tl = Column.I (Ibuf.finish ranks) }

let histogram b = group_aggr Count (reverse b)
