type t =
  | I of int array
  | F of float array
  | S of string array
  | B of bool array
  | O of int array

let ty = function
  | I _ -> Atom.TInt
  | F _ -> Atom.TFlt
  | S _ -> Atom.TStr
  | B _ -> Atom.TBool
  | O _ -> Atom.TOid

let length = function
  | I a -> Array.length a
  | F a -> Array.length a
  | S a -> Array.length a
  | B a -> Array.length a
  | O a -> Array.length a

let get c i =
  match c with
  | I a -> Atom.Int a.(i)
  | F a -> Atom.Flt a.(i)
  | S a -> Atom.Str a.(i)
  | B a -> Atom.Bool a.(i)
  | O a -> Atom.Oid a.(i)

let type_mismatch c a =
  invalid_arg
    (Printf.sprintf "Column: cell type %s does not match column type %s"
       (Atom.ty_name (Atom.type_of a))
       (Atom.ty_name (ty c)))

let set c i a =
  match (c, a) with
  | I arr, Atom.Int v -> arr.(i) <- v
  | F arr, Atom.Flt v -> arr.(i) <- v
  | F arr, Atom.Int v -> arr.(i) <- Float.of_int v
  | S arr, Atom.Str v -> arr.(i) <- v
  | B arr, Atom.Bool v -> arr.(i) <- v
  | O arr, Atom.Oid v -> arr.(i) <- v
  | (I _ | F _ | S _ | B _ | O _), _ -> type_mismatch c a

let make ty n =
  match ty with
  | Atom.TInt -> I (Array.make n 0)
  | Atom.TFlt -> F (Array.make n 0.0)
  | Atom.TStr -> S (Array.make n "")
  | Atom.TBool -> B (Array.make n false)
  | Atom.TOid -> O (Array.make n 0)

let const a n =
  match a with
  | Atom.Int v -> I (Array.make n v)
  | Atom.Flt v -> F (Array.make n v)
  | Atom.Str v -> S (Array.make n v)
  | Atom.Bool v -> B (Array.make n v)
  | Atom.Oid v -> O (Array.make n v)

let init ty n f =
  let c = make ty n in
  for i = 0 to n - 1 do
    set c i (f i)
  done;
  c

let of_atoms ty atoms =
  let n = List.length atoms in
  let c = make ty n in
  List.iteri (fun i a -> set c i a) atoms;
  c

let to_atoms c = List.init (length c) (get c)

(* A typed fill: [Array.init] writes each cell through its polymorphic
   path, about four times slower over ints. *)
let iota base n =
  let a = Array.make n base in
  for i = 1 to n - 1 do
    a.(i) <- base + i
  done;
  a

let dense base n = O (iota base n)

(* Cells [lo, hi) of a gather into the preallocated [o]; one match per
   range, so that the loops run on unboxed arrays. *)
let gather_range o c idx lo hi =
  match (o, c) with
  | (I o | O o), (I a | O a) ->
    for k = lo to hi - 1 do
      o.(k) <- a.(idx.(k))
    done
  | F o, F a ->
    for k = lo to hi - 1 do
      o.(k) <- a.(idx.(k))
    done
  | S o, S a ->
    for k = lo to hi - 1 do
      o.(k) <- a.(idx.(k))
    done
  | B o, B a ->
    for k = lo to hi - 1 do
      o.(k) <- a.(idx.(k))
    done
  | _ -> invalid_arg "Column.gather: type mismatch"

let gather c idx =
  let o = make (ty c) (Array.length idx) in
  Parkernel.fill (Array.length idx) (gather_range o c idx);
  o

let gather_pair a ia b ib =
  let n = Array.length ia in
  let oa = make (ty a) n and ob = make (ty b) n in
  Parkernel.fill n (fun lo hi ->
      gather_range oa a ia lo hi;
      gather_range ob b ib lo hi);
  (oa, ob)

let append c d =
  match (c, d) with
  | I a, I b -> I (Array.append a b)
  | F a, F b -> F (Array.append a b)
  | S a, S b -> S (Array.append a b)
  | B a, B b -> B (Array.append a b)
  | O a, O b -> O (Array.append a b)
  | (I _ | F _ | S _ | B _ | O _), _ ->
    invalid_arg "Column.append: type mismatch"

let equal c d =
  match (c, d) with
  | I a, I b -> a = b
  | F a, F b -> Array.length a = Array.length b && Array.for_all2 Float.equal a b
  | S a, S b -> a = b
  | B a, B b -> a = b
  | O a, O b -> a = b
  | (I _ | F _ | S _ | B _ | O _), _ -> false

let bytes = function
  | I a | O a -> 8 * Array.length a
  | F a -> 8 * Array.length a
  | B a -> 8 * Array.length a
  | S a -> Array.fold_left (fun acc s -> acc + 8 + String.length s) 0 a

let oid_exn = function O a -> a | _ -> invalid_arg "Column.oid_exn: not an oid column"
let float_exn = function F a -> a | _ -> invalid_arg "Column.float_exn: not a float column"

module Builder = struct
  type buf =
    | BI of int array
    | BF of float array
    | BS of string array
    | BB of bool array
    | BO of int array

  type t = { mutable buf : buf; mutable len : int }

  let create ty =
    let buf =
      match ty with
      | Atom.TInt -> BI (Array.make 16 0)
      | Atom.TFlt -> BF (Array.make 16 0.0)
      | Atom.TStr -> BS (Array.make 16 "")
      | Atom.TBool -> BB (Array.make 16 false)
      | Atom.TOid -> BO (Array.make 16 0)
    in
    { buf; len = 0 }

  let capacity b =
    match b.buf with
    | BI a -> Array.length a
    | BF a -> Array.length a
    | BS a -> Array.length a
    | BB a -> Array.length a
    | BO a -> Array.length a

  let grow b =
    let n = capacity b * 2 in
    let extend make blit a =
      let fresh = make n in
      blit a fresh;
      fresh
    in
    b.buf <-
      (match b.buf with
      | BI a -> BI (extend (fun n -> Array.make n 0) (fun a f -> Array.blit a 0 f 0 b.len) a)
      | BF a -> BF (extend (fun n -> Array.make n 0.0) (fun a f -> Array.blit a 0 f 0 b.len) a)
      | BS a -> BS (extend (fun n -> Array.make n "") (fun a f -> Array.blit a 0 f 0 b.len) a)
      | BB a -> BB (extend (fun n -> Array.make n false) (fun a f -> Array.blit a 0 f 0 b.len) a)
      | BO a -> BO (extend (fun n -> Array.make n 0) (fun a f -> Array.blit a 0 f 0 b.len) a))

  let ensure b = if b.len >= capacity b then grow b

  let add b atom =
    ensure b;
    (match (b.buf, atom) with
    | BI a, Atom.Int v -> a.(b.len) <- v
    | BF a, Atom.Flt v -> a.(b.len) <- v
    | BF a, Atom.Int v -> a.(b.len) <- Float.of_int v
    | BS a, Atom.Str v -> a.(b.len) <- v
    | BB a, Atom.Bool v -> a.(b.len) <- v
    | BO a, Atom.Oid v -> a.(b.len) <- v
    | (BI _ | BF _ | BS _ | BB _ | BO _), _ ->
      invalid_arg "Column.Builder.add: type mismatch");
    b.len <- b.len + 1

  let add_int b v =
    ensure b;
    (match b.buf with
    | BI a -> a.(b.len) <- v
    | _ -> invalid_arg "Column.Builder.add_int: not an int builder");
    b.len <- b.len + 1

  let add_float b v =
    ensure b;
    (match b.buf with
    | BF a -> a.(b.len) <- v
    | _ -> invalid_arg "Column.Builder.add_float: not a float builder");
    b.len <- b.len + 1

  let add_oid b v =
    ensure b;
    (match b.buf with
    | BO a -> a.(b.len) <- v
    | _ -> invalid_arg "Column.Builder.add_oid: not an oid builder");
    b.len <- b.len + 1

  let length b = b.len

  let finish b =
    match b.buf with
    | BI a -> I (Array.sub a 0 b.len)
    | BF a -> F (Array.sub a 0 b.len)
    | BS a -> S (Array.sub a 0 b.len)
    | BB a -> B (Array.sub a 0 b.len)
    | BO a -> O (Array.sub a 0 b.len)
end
