(* The parallel-kernel correctness battery.

   The morsel scheduler's contract is that parallel execution is
   invisible: for any plan the Effcheck verdict licenses, running under
   a domain pool of any size with any morsel size produces a result
   [Bat.equal] (order- and bit-sensitive) to the sequential kernel's.
   This suite attacks that contract from four sides:

   - differential fuzzing: seeded random MIL plans (the shared
     {!Milgen} generator) executed sequentially and under pools of 1, 2
     and 4 domains with randomized morsel sizes — 120 plans per domain
     count in the default test run, 500 when MIRROR_PARALLEL_FULL is
     set (the @bench-smoke alias);
   - the unsafe-operator ladder: a deliberately misbehaving foreign
     operator (undeclared in-place write) must be flagged by Effcheck,
     refused by the scheduler (its dispatch sees no current pool), and
     caught by the runtime effect sanitizer when its declaration lies;
   - merge-order units: each of the kernel's range-based operators,
     run under pools of every domain count and pathological morsel
     sizes, must equal the sequential kernel as it was written before
     the fold (the verbatim [Old_bat] oracle), including float min/max
     with NaN and signed zeros and the mixed int/float Calc2 case;
   - morsel edge cases: empty input, single row, a morsel size set
     larger than the BAT (a morsel is at most one domain's share of
     the rows, so on one domain that is one morsel of the whole BAT),
     and an input too small for one default morsel, which still
     spreads over the pool;
   - the corpus: every query of the shared lint corpus, run through
     [Eval.query] with a 2-domain default pool, must produce the
     sequential value. *)

module Prng = Mirror_util.Prng
module Trace = Mirror_util.Trace
module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil
module Milprop = Mirror_bat.Milprop
module Milcheck = Mirror_bat.Milcheck
module Effcheck = Mirror_bat.Effcheck
module Parkernel = Mirror_bat.Parkernel
module Eval = Mirror_core.Eval
module Value = Mirror_core.Value
module Corpus = Mirror_core.Corpus
module Parser = Mirror_core.Parser

(* {1 The oracle: the sequential kernel before the fold}

   The ten operators as the sequential kernel wrote them before they
   were folded onto [Parkernel.ranges], kept verbatim (the record is
   local and converted at the boundary, and [gather] is the old
   [Column.gather]) as the oracle every run of the one kernel, at any
   domain count and morsel size, must match bit for bit. *)
module Old_bat = struct
  open Bat

  type t = { hd : Column.t; tl : Column.t }

  let gather c idx =
    match c with
    | Column.I a -> Column.I (Array.map (fun i -> a.(i)) idx)
    | Column.F a -> Column.F (Array.map (fun i -> a.(i)) idx)
    | Column.S a -> Column.S (Array.map (fun i -> a.(i)) idx)
    | Column.B a -> Column.B (Array.map (fun i -> a.(i)) idx)
    | Column.O a -> Column.O (Array.map (fun i -> a.(i)) idx)

  module AtomTbl = Hashtbl.Make (struct
    type t = Atom.t

    let equal = Atom.equal
    let hash = Atom.hash
  end)

  (* Growable int vector used to collect row indices. *)
  module Ibuf = struct
    type t = { mutable a : int array; mutable n : int }

    let create () = { a = Array.make 16 0; n = 0 }

    let push b v =
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

  let count b = Column.length b.hd
  let hty b = Column.ty b.hd
  let tty b = Column.ty b.tl
  let head_at b i = Column.get b.hd i
  let tail_at b i = Column.get b.tl i

  let iter f b =
    for i = 0 to count b - 1 do
      f (head_at b i) (tail_at b i)
    done

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
    match (op, lt, rt) with
    | _, Column.I a, Column.I b -> (
      match (op, int_binop op) with
      | _, Some f -> Some (Column.I (Array.init (Array.length a) (fun i -> f a.(i) b.(i))))
      | CmpOp c, _ ->
        let f = int_cmp c in
        Some (Column.B (Array.init (Array.length a) (fun i -> f a.(i) b.(i))))
      | _ -> None)
    | _, Column.F a, Column.F b -> (
      match (op, float_binop op) with
      | _, Some f -> Some (Column.F (Array.init (Array.length a) (fun i -> f a.(i) b.(i))))
      | CmpOp c, _ ->
        let f = float_cmp c in
        Some (Column.B (Array.init (Array.length a) (fun i -> f a.(i) b.(i))))
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

  let calc1 op b =
    let fast =
      match (op, b.tl) with
      | Not, Column.B a -> Some (Column.B (Array.map not a))
      | Neg, Column.I a -> Some (Column.I (Array.map (fun x -> -x) a))
      | Neg, Column.F a -> Some (Column.F (Array.map (fun x -> -.x) a))
      | Abs, Column.I a -> Some (Column.I (Array.map abs a))
      | Abs, Column.F a -> Some (Column.F (Array.map Float.abs a))
      | ToFlt, Column.I a -> Some (Column.F (Array.map Float.of_int a))
      | ToFlt, Column.F a -> Some (Column.F (Array.copy a))
      | Log, Column.I a -> Some (Column.F (Array.map (fun x -> log (Float.of_int x)) a))
      | Log, Column.F a -> Some (Column.F (Array.map log a))
      | Exp, Column.I a -> Some (Column.F (Array.map (fun x -> exp (Float.of_int x)) a))
      | Exp, Column.F a -> Some (Column.F (Array.map exp a))
      | Sqrt, Column.I a -> Some (Column.F (Array.map (fun x -> sqrt (Float.of_int x)) a))
      | Sqrt, Column.F a -> Some (Column.F (Array.map sqrt a))
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
    let fast =
      match (b.tl, a) with
      | Column.I arr, Atom.Int v -> (
        match (op, int_binop op) with
        | _, Some f -> Some (Column.I (Array.map (fun x -> f x v) arr))
        | CmpOp c, _ ->
          let f = int_cmp c in
          Some (Column.B (Array.map (fun x -> f x v) arr))
        | _ -> None)
      | Column.F arr, Atom.Flt v -> (
        match (op, float_binop op) with
        | _, Some f -> Some (Column.F (Array.map (fun x -> f x v) arr))
        | CmpOp c, _ ->
          let f = float_cmp c in
          Some (Column.B (Array.map (fun x -> f x v) arr))
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
    let fast =
      match (a, b.tl) with
      | Atom.Int v, Column.I arr -> (
        match (op, int_binop op) with
        | _, Some f -> Some (Column.I (Array.map (fun x -> f v x) arr))
        | CmpOp c, _ ->
          let f = int_cmp c in
          Some (Column.B (Array.map (fun x -> f v x) arr))
        | _ -> None)
      | Atom.Flt v, Column.F arr -> (
        match (op, float_binop op) with
        | _, Some f -> Some (Column.F (Array.map (fun x -> f v x) arr))
        | CmpOp c, _ ->
          let f = float_cmp c in
          Some (Column.B (Array.map (fun x -> f v x) arr))
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

  let take b idx = { hd = gather b.hd idx; tl = gather b.tl idx }

  let select_indices pred b =
    let keep = Ibuf.create () in
    for i = 0 to count b - 1 do
      if pred i then Ibuf.push keep i
    done;
    take b (Ibuf.finish keep)

  let select_cmp b c a =
    match (b.tl, a) with
    | (Column.I arr | Column.O arr), (Atom.Int v | Atom.Oid v)
      when Atom.type_of a = Column.ty b.tl ->
      let f = int_cmp c in
      select_indices (fun i -> f arr.(i) v) b
    | Column.F arr, Atom.Flt v ->
      let f = float_cmp c in
      select_indices (fun i -> f arr.(i) v) b
    | Column.S arr, Atom.Str v ->
      let f = int_cmp c in
      select_indices (fun i -> f (String.compare arr.(i) v) 0) b
    | _ -> select_indices (fun i -> apply_cmp c (tail_at b i) a) b

  let select_range b lo hi =
    match (b.tl, lo, hi) with
    | (Column.I arr | Column.O arr), (Atom.Int l | Atom.Oid l), (Atom.Int h | Atom.Oid h)
      when Atom.type_of lo = Column.ty b.tl && Atom.type_of hi = Column.ty b.tl ->
      select_indices (fun i -> l <= arr.(i) && arr.(i) <= h) b
    | Column.F arr, Atom.Flt l, Atom.Flt h ->
      select_indices
        (fun i -> Float.compare l arr.(i) <= 0 && Float.compare arr.(i) h <= 0)
        b
    | Column.S arr, Atom.Str l, Atom.Str h ->
      select_indices
        (fun i -> String.compare l arr.(i) <= 0 && String.compare arr.(i) h <= 0)
        b
    | _ ->
      select_indices
        (fun i ->
          let t = tail_at b i in
          Atom.compare lo t <= 0 && Atom.compare t hi <= 0)
        b

  let select_bool b =
    match b.tl with
    | Column.B arr -> select_indices (fun i -> arr.(i)) b
    | _ -> invalid_arg "Bat.select_bool: tail is not boolean"

  (* Index of a column: value -> positions in order. *)
  let positions_index c =
    let tbl = AtomTbl.create (Column.length c) in
    for i = Column.length c - 1 downto 0 do
      let v = Column.get c i in
      let rest = try AtomTbl.find tbl v with Not_found -> [] in
      AtomTbl.replace tbl v (i :: rest)
    done;
    tbl

  let join_generic l r =
    let idx = positions_index r.hd in
    let li = Ibuf.create () and rj = Ibuf.create () in
    for i = 0 to count l - 1 do
      match AtomTbl.find_opt idx (tail_at l i) with
      | None -> ()
      | Some js ->
        List.iter
          (fun j ->
            Ibuf.push li i;
            Ibuf.push rj j)
          js
    done;
    { hd = gather l.hd (Ibuf.finish li); tl = gather r.tl (Ibuf.finish rj) }

  let join_int l r lt rh =
    let li = Ibuf.create () and rj = Ibuf.create () in
    (match dense_base rh with
    | Some base ->
      (* void head: position arithmetic, keys are unique *)
      let nr = Array.length rh in
      for i = 0 to Array.length lt - 1 do
        let j = lt.(i) - base in
        if j >= 0 && j < nr then begin
          Ibuf.push li i;
          Ibuf.push rj j
        end
      done
    | None ->
      if is_nondecreasing lt && is_strictly_increasing rh then begin
        (* merge join over sorted oid columns *)
        let nr = Array.length rh in
        let j = ref 0 in
        for i = 0 to Array.length lt - 1 do
          while !j < nr && rh.(!j) < lt.(i) do
            incr j
          done;
          if !j < nr && rh.(!j) = lt.(i) then begin
            Ibuf.push li i;
            Ibuf.push rj !j
          end
        done
      end
      else begin
        let idx = Hashtbl.create (Array.length rh) in
        for j = Array.length rh - 1 downto 0 do
          let rest = try Hashtbl.find idx rh.(j) with Not_found -> [] in
          Hashtbl.replace idx rh.(j) (j :: rest)
        done;
        for i = 0 to Array.length lt - 1 do
          match Hashtbl.find_opt idx lt.(i) with
          | None -> ()
          | Some js ->
            List.iter
              (fun j ->
                Ibuf.push li i;
                Ibuf.push rj j)
              js
        done
      end);
    { hd = gather l.hd (Ibuf.finish li); tl = gather r.tl (Ibuf.finish rj) }

  let join l r =
    if tty l <> hty r then
      invalid_arg
        (Printf.sprintf "Bat.join: tail type %s does not match head type %s"
           (Atom.ty_name (tty l)) (Atom.ty_name (hty r)));
    match (l.tl, r.hd) with
    | (Column.I lt | Column.O lt), (Column.I rh | Column.O rh) -> join_int l r lt rh
    | _ -> join_generic l r

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

  (* Slot lookup for unboxed int/oid grouping keys: when the key range is
     a small window the slot map is a flat array (Monet-style) instead of
     a hash table. *)
  let int_slot_lookup hs =
    let n = Array.length hs in
    let lo = ref max_int and hi = ref min_int in
    Array.iter
      (fun h ->
        if h < !lo then lo := h;
        if h > !hi then hi := h)
      hs;
    if n > 0 && !hi - !lo < (4 * n) + 64 then begin
      let table = Array.make (!hi - !lo + 1) (-1) in
      let base = !lo in
      (* slot or -1: an option here would box once per row *)
      ((fun h -> table.(h - base)), fun h s -> table.(h - base) <- s)
    end
    else begin
      let tbl = Hashtbl.create n in
      ( (fun h -> match Hashtbl.find_opt tbl h with Some s -> s | None -> -1),
        fun h s -> Hashtbl.add tbl h s )
    end

  (* Grouped aggregation over int/oid heads: one constructor match per
     column, then monomorphic loops over unboxed keys and accumulators.
     Only operand combinations without a typed kernel fall back to the
     boxed atom loop (non-numeric tails keep its error behavior). *)
  let group_aggr_int_head op b hs =
    let n = Array.length hs in
    let find_slot, add_slot = int_slot_lookup hs in
    let keys = Ibuf.create () in
    let mk_keys ka =
      match Column.ty b.hd with Atom.TOid -> Column.O ka | _ -> Column.I ka
    in
    let int_kernel value comb =
      let vals = Ibuf.create () in
      for i = 0 to n - 1 do
        let h = hs.(i) in
        let s = find_slot h in
        if s >= 0 then Ibuf.set vals s (comb (Ibuf.get vals s) (value i))
        else begin
          add_slot h (Ibuf.len keys);
          Ibuf.push keys h;
          Ibuf.push vals (value i)
        end
      done;
      Column.I (Ibuf.finish vals)
    in
    (* [init] seeds a fresh group's accumulator: first value for min/max,
       [0.0 +. v] for sums (matching the long-standing 0-seeded float
       accumulation of the boxed path bit for bit). *)
    let flt_kernel init value comb =
      let vals = Fbuf.create () in
      for i = 0 to n - 1 do
        let h = hs.(i) in
        let s = find_slot h in
        if s >= 0 then Fbuf.set vals s (comb (Fbuf.get vals s) (value i))
        else begin
          add_slot h (Ibuf.len keys);
          Ibuf.push keys h;
          Fbuf.push vals (init i)
        end
      done;
      Column.F (Fbuf.finish vals)
    in
    let fast =
      match (op, b.tl) with
      | Count, _ -> Some (int_kernel (fun _ -> 1) ( + ))
      | Sum, Column.I ts -> Some (int_kernel (Array.get ts) ( + ))
      | Min, Column.I ts -> Some (int_kernel (Array.get ts) min)
      | Max, Column.I ts -> Some (int_kernel (Array.get ts) max)
      | Prod, Column.I ts -> Some (int_kernel (Array.get ts) ( * ))
      | Sum, Column.F ts ->
        Some (flt_kernel (fun i -> 0.0 +. ts.(i)) (Array.get ts) ( +. ))
      | Min, Column.F ts -> Some (flt_kernel (Array.get ts) (Array.get ts) Float.min)
      | Max, Column.F ts -> Some (flt_kernel (Array.get ts) (Array.get ts) Float.max)
      | Avg, (Column.I _ | Column.F _) ->
        let value =
          match b.tl with
          | Column.F ts -> Array.get ts
          | Column.I ts -> fun i -> Float.of_int ts.(i)
          | _ -> assert false
        in
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
          (Column.F
             (Array.init g (fun s -> Fbuf.get sums s /. Float.of_int (Ibuf.get cnts s))))
      | _ -> None
    in
    match fast with
    | Some tl -> { hd = mk_keys (Ibuf.finish keys); tl }
    | None ->
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
          let s = ref ts.(0) in
          for i = 1 to n - 1 do
            s := !s + ts.(i)
          done;
          Some (Atom.Int !s)
        | Prod, Column.I ts ->
          let s = ref ts.(0) in
          for i = 1 to n - 1 do
            s := !s * ts.(i)
          done;
          Some (Atom.Int !s)
        | Min, Column.I ts ->
          let s = ref ts.(0) in
          for i = 1 to n - 1 do
            s := min !s ts.(i)
          done;
          Some (Atom.Int !s)
        | Max, Column.I ts ->
          let s = ref ts.(0) in
          for i = 1 to n - 1 do
            s := max !s ts.(i)
          done;
          Some (Atom.Int !s)
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
        | Min, Column.F ts ->
          let s = ref ts.(0) in
          for i = 1 to n - 1 do
            s := Float.min !s ts.(i)
          done;
          Some (Atom.Flt !s)
        | Max, Column.F ts ->
          let s = ref ts.(0) in
          for i = 1 to n - 1 do
            s := Float.max !s ts.(i)
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

end

(* The oracle over [Bat.t]. *)
module Old = struct
  let of_bat b = { Old_bat.hd = Bat.head b; tl = Bat.tail b }
  let to_bat (r : Old_bat.t) = Bat.make r.Old_bat.hd r.Old_bat.tl
  let lift f b = to_bat (f (of_bat b))
  let select_cmp b c a = lift (fun r -> Old_bat.select_cmp r c a) b
  let select_range b lo hi = lift (fun r -> Old_bat.select_range r lo hi) b
  let select_bool b = lift Old_bat.select_bool b
  let calc1 op b = lift (Old_bat.calc1 op) b
  let calc_const op b a = lift (fun r -> Old_bat.calc_const op r a) b
  let const_calc op a b = lift (Old_bat.const_calc op a) b
  let calc2 op l r = to_bat (Old_bat.calc2 op (of_bat l) (of_bat r))
  let join l r = to_bat (Old_bat.join (of_bat l) (of_bat r))
  let group_aggr op b = lift (Old_bat.group_aggr op) b
  let aggr_all op b = Old_bat.aggr_all op (of_bat b)
end

let full = Sys.getenv_opt "MIRROR_PARALLEL_FULL" <> None
let plans_to_generate = if full then 500 else 120
let domain_counts = [ 1; 2; 4 ]
let morsel_sizes = [| 1; 3; 16; 64; 1000 |]

let failf plan fmt =
  Printf.ksprintf
    (fun msg -> Alcotest.failf "%s\nplan:\n%s" msg (Mil.to_string plan))
    fmt

(* The Effcheck verdict over a one-plan bundle; [foreign] declares
   operators. *)
let verdict ?foreign catalog plan =
  Effcheck.verdict (Milcheck.analyze (Milcheck.env ?foreign catalog) [ plan ])

(* {1 Differential fuzz: parallel == sequential, bit for bit} *)

let test_differential () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pools = List.map (fun d -> (d, Parkernel.create d)) domain_counts in
  let g = Prng.create 20260809 in
  let pool = ref (Milgen.seed_pool catalog Milgen.fixture_names) in
  let par_execs = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      List.iter (fun (_, p) -> Parkernel.shutdown p) pools)
    (fun () ->
      for _ = 1 to plans_to_generate do
        let plan, hty, tty = Milgen.generate g !pool in
        let expected = Mil.exec (Mil.session catalog) plan in
        let safe = (verdict catalog plan).Effcheck.safe in
        if not (safe plan) then
          failf plan "Effcheck refused a kernel-only plan as parallel-unsafe";
        List.iter
          (fun (d, p) ->
            Parkernel.set_morsel_size (Prng.choose g morsel_sizes);
            let s = Mil.session ~par:{ Mil.pool = p; safe } catalog in
            let got = Mil.exec s plan in
            if not (Bat.equal expected got) then
              failf plan "parallel result differs at %d domains (morsel %d)" d
                (Parkernel.morsel_size ());
            par_execs := !par_execs + (Mil.stats s).Mil.par_ops)
          pools;
        if Bat.count expected <= 1000 then
          pool := { Milgen.plan; hty; tty } :: !pool
      done;
      Alcotest.(check bool)
        (Printf.sprintf "the pools actually ran operators in parallel (%d par ops)"
           !par_execs)
        true (!par_execs > 0))

(* {1 The unsafe-operator ladder}

   A test-only foreign operator that mutates its input column in place
   and returns the very same BAT — the two sins (undeclared write,
   undeclared aliasing) the effect layer exists to catch. *)

let clobber_name = "test.clobber"

let clobber_dispatch saw_pool ~name ~args ~meta:_ =
  match (name, args) with
  | n, [ b ] when n = clobber_name ->
    saw_pool := Parkernel.current () <> None;
    (match Bat.tail b with
    | Column.I a when Array.length a > 0 -> a.(0) <- a.(0) + 1
    | _ -> ());
    b
  | _ -> Alcotest.failf "unexpected foreign %s" name

(* [clobber_name] declared (falsely) pure *)
let pure_clobber name =
  if name = clobber_name then
    Some
      {
        Milcheck.f_arities = [ 1 ];
        f_meta_min = 0;
        f_result = Milprop.unknown;
        f_pure = true;
        f_shares = false;
        f_writes = false;
        f_rows = None;
      }
  else None

let test_effcheck_flags_unsafe () =
  let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
  let v = verdict (Milgen.fixture ()) plan in
  Alcotest.(check bool) "undeclared foreign raises a hazard" true (v.Effcheck.hazards <> []);
  Alcotest.(check bool) "verdict refuses the node" false (v.Effcheck.safe plan);
  (* the taint spreads over the whole partition: the argument scan the
     clobber can reach is refused too *)
  Alcotest.(check bool) "argument node shares the unsafe partition" false
    (v.Effcheck.safe (Mil.Get "ints"))

let test_scheduler_refuses_unsafe () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
      let saw_pool = ref true in
      (* undeclared: the verdict marks the node unsafe, so the executor
         must dispatch it outside the pool scope *)
      let safe = (verdict catalog plan).Effcheck.safe in
      let s =
        Mil.session ~foreign:(clobber_dispatch saw_pool) ~par:{ Mil.pool; safe } catalog
      in
      ignore (Mil.exec s plan);
      Alcotest.(check bool) "unsafe foreign ran without a pool" false !saw_pool;
      Alcotest.(check int) "no operator went parallel" 0 (Mil.stats s).Mil.par_ops;
      (* the same operator with a (false) pure declaration is licensed:
         the scheduler exposes the pool to its dispatch *)
      let safe = (verdict ~foreign:pure_clobber catalog plan).Effcheck.safe in
      let s2 =
        Mil.session ~foreign:(clobber_dispatch saw_pool) ~par:{ Mil.pool; safe } catalog
      in
      ignore (Mil.exec s2 plan);
      Alcotest.(check bool) "declared-pure foreign sees the pool" true !saw_pool)

let test_sanitizer_catches_forced () =
  (* force the operator through by lying: declare it pure, then let the
     runtime sanitizer compare observed behaviour against the
     declaration *)
  let catalog = Milgen.fixture () in
  let saw_pool = ref false in
  let s = Mil.session ~foreign:(clobber_dispatch saw_pool) catalog in
  let san = Effcheck.sanitizer (Milcheck.env ~foreign:pure_clobber catalog) s in
  let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
  match Effcheck.exec san plan with
  | exception Effcheck.Violation _ -> ()
  | _ -> (
    (* aliasing slipped by (zero-length exemptions etc.): the in-place
       write must still be caught by the final fingerprint pass *)
    match Effcheck.finish san with
    | exception Effcheck.Violation _ -> ()
    | () -> Alcotest.fail "sanitizer accepted an undeclared in-place write")

(* {1 Merge-order units: the one kernel against the oracle} *)

(* [Bat.equal] plus bitwise float cells: [Float.equal] identifies -0.0
   and 0.0, the determinism contract does not. *)
let float_bits = function
  | Column.F a -> Some (Array.map Int64.bits_of_float a)
  | _ -> None

let same a b =
  Bat.equal a b
  && float_bits (Bat.head a) = float_bits (Bat.head b)
  && float_bits (Bat.tail a) = float_bits (Bat.tail b)

let atom_bat a = Bat.of_pairs Atom.TOid (Atom.type_of a) [ (Atom.Oid 0, a) ]

let oids n f = Column.O (Array.init n f)

let ints_bat n =
  Bat.make (oids n (fun i -> i mod 7)) (Column.I (Array.init n (fun i -> ((i * 31) mod 113) - 50)))

let flts_bat n =
  Bat.make
    (oids n (fun i -> i mod 7))
    (Column.F (Array.init n (fun i -> Float.of_int (((i * 17) mod 97) - 48) /. 8.0)))

(* Every range-based operator over a BAT of [n] rows, on each typed
   path: (label, the kernel's call, the oracle's call). *)
let battery n =
  let bi = ints_bat n and bf = flts_bat n in
  let dense = Bat.make (oids n (fun i -> i)) (Bat.tail bi) in
  let dense_f = Bat.make (Bat.head dense) (Bat.tail bf) in
  let bools = Bat.make (Bat.head dense) (Column.B (Array.init n (fun i -> i mod 3 = 0))) in
  let strs =
    Bat.make (Bat.head dense) (Column.S (Array.init n (fun i -> string_of_int (i mod 11))))
  in
  let m = max 1 (n / 4) in
  let link = Bat.make (Bat.head dense) (oids n (fun i -> (i * 5) mod m)) in
  let sorted_link = Bat.make (Bat.head dense) (oids n (fun i -> i * m / max 1 n)) in
  let r_dense = Bat.make (oids m (fun i -> i)) (Column.I (Array.init m (fun i -> i * 3))) in
  let r_sorted =
    Bat.make (oids m (fun i -> 2 * i)) (Column.I (Array.init m (fun i -> i - 7)))
  in
  let r_hash =
    Bat.make (oids (2 * m) (fun i -> (i * 7) mod m)) (Column.I (Array.init (2 * m) (fun i -> i)))
  in
  let r_strs = Bat.make (Column.S (Array.init 6 string_of_int)) (Column.I (Array.init 6 (fun i -> i))) in
  let str_keyed = Bat.make (Bat.tail strs) (Bat.tail bi) in
  let shifted = Bat.make (oids n (fun i -> n - 1 - i)) (Bat.tail bf) in
  let aggrs = [ Bat.Count; Bat.Sum; Bat.Prod; Bat.Min; Bat.Max; Bat.Avg ] in
  let aggr_name = function
    | Bat.Count -> "count"
    | Bat.Sum -> "sum"
    | Bat.Prod -> "prod"
    | Bat.Min -> "min"
    | Bat.Max -> "max"
    | Bat.Avg -> "avg"
  in
  let small = Bat.make (Bat.head bi) (Column.I (Array.init n (fun i -> (i mod 3) - 1))) in
  [
    ( "select int <",
      (fun () -> Bat.select_cmp bi Bat.Lt (Atom.Int 3)),
      fun () -> Old.select_cmp bi Bat.Lt (Atom.Int 3) );
    ( "select flt >=",
      (fun () -> Bat.select_cmp bf Bat.Ge (Atom.Flt 0.5)),
      fun () -> Old.select_cmp bf Bat.Ge (Atom.Flt 0.5) );
    ( "select str =",
      (fun () -> Bat.select_cmp strs Bat.Eq (Atom.Str "4")),
      fun () -> Old.select_cmp strs Bat.Eq (Atom.Str "4") );
    ( "select mixed",
      (fun () -> Bat.select_cmp bi Bat.Gt (Atom.Flt 1.5)),
      fun () -> Old.select_cmp bi Bat.Gt (Atom.Flt 1.5) );
    ( "select range int",
      (fun () -> Bat.select_range bi (Atom.Int (-10)) (Atom.Int 20)),
      fun () -> Old.select_range bi (Atom.Int (-10)) (Atom.Int 20) );
    ( "select range flt",
      (fun () -> Bat.select_range bf (Atom.Flt (-1.0)) (Atom.Flt 2.0)),
      fun () -> Old.select_range bf (Atom.Flt (-1.0)) (Atom.Flt 2.0) );
    ("select bool", (fun () -> Bat.select_bool bools), fun () -> Old.select_bool bools);
    ("calc1 neg int", (fun () -> Bat.calc1 Bat.Neg bi), fun () -> Old.calc1 Bat.Neg bi);
    ("calc1 sqrt flt", (fun () -> Bat.calc1 Bat.Sqrt bf), fun () -> Old.calc1 Bat.Sqrt bf);
    ("calc1 toflt", (fun () -> Bat.calc1 Bat.ToFlt bi), fun () -> Old.calc1 Bat.ToFlt bi);
    ("calc1 not", (fun () -> Bat.calc1 Bat.Not bools), fun () -> Old.calc1 Bat.Not bools);
    ( "calc_const int mul",
      (fun () -> Bat.calc_const Bat.Mul bi (Atom.Int 3)),
      fun () -> Old.calc_const Bat.Mul bi (Atom.Int 3) );
    ( "calc_const flt cmp",
      (fun () -> Bat.calc_const (Bat.CmpOp Bat.Le) bf (Atom.Flt 0.0)),
      fun () -> Old.calc_const (Bat.CmpOp Bat.Le) bf (Atom.Flt 0.0) );
    ( "calc_const boxed",
      (fun () -> Bat.calc_const Bat.Div bi (Atom.Int 7)),
      fun () -> Old.calc_const Bat.Div bi (Atom.Int 7) );
    ( "const_calc int sub",
      (fun () -> Bat.const_calc Bat.Sub (Atom.Int 5) bi),
      fun () -> Old.const_calc Bat.Sub (Atom.Int 5) bi );
    ( "const_calc flt max",
      (fun () -> Bat.const_calc Bat.MaxOp (Atom.Flt 0.25) bf),
      fun () -> Old.const_calc Bat.MaxOp (Atom.Flt 0.25) bf );
    ( "calc2 aligned int",
      (fun () -> Bat.calc2 Bat.Add dense (Bat.calc1 Bat.Neg dense)),
      fun () -> Old.calc2 Bat.Add dense (Old.calc1 Bat.Neg dense) );
    ( "calc2 aligned flt cmp",
      (fun () -> Bat.calc2 (Bat.CmpOp Bat.Lt) dense_f (Bat.calc1 Bat.Neg dense_f)),
      fun () -> Old.calc2 (Bat.CmpOp Bat.Lt) dense_f (Old.calc1 Bat.Neg dense_f) );
    ( "calc2 head-matched",
      (fun () -> Bat.calc2 Bat.Sub dense_f shifted),
      fun () -> Old.calc2 Bat.Sub dense_f shifted );
    ("join dense", (fun () -> Bat.join link r_dense), fun () -> Old.join link r_dense);
    ( "join merge",
      (fun () -> Bat.join sorted_link r_sorted),
      fun () -> Old.join sorted_link r_sorted );
    ("join hash", (fun () -> Bat.join link r_hash), fun () -> Old.join link r_hash);
    ("join generic", (fun () -> Bat.join strs r_strs), fun () -> Old.join strs r_strs);
    ( "aggr_all prod int",
      (fun () -> atom_bat (Bat.aggr_all Bat.Prod small)),
      fun () -> atom_bat (Old.aggr_all Bat.Prod small) );
  ]
  @ List.concat_map
      (fun aggr ->
        [
          ( "group " ^ aggr_name aggr ^ " int",
            (fun () -> Bat.group_aggr aggr bi),
            fun () -> Old.group_aggr aggr bi );
          ( "group " ^ aggr_name aggr ^ " flt",
            (fun () -> Bat.group_aggr aggr bf),
            fun () -> Old.group_aggr aggr bf );
          ( "group " ^ aggr_name aggr ^ " str head",
            (fun () -> Bat.group_aggr aggr str_keyed),
            fun () -> Old.group_aggr aggr str_keyed );
        ]
        @
        if n = 0 && aggr <> Bat.Sum && aggr <> Bat.Count && aggr <> Bat.Prod then []
        else
          [
            ( "aggr_all " ^ aggr_name aggr ^ " int",
              (fun () -> atom_bat (Bat.aggr_all aggr bi)),
              fun () -> atom_bat (Old.aggr_all aggr bi) );
            ( "aggr_all " ^ aggr_name aggr ^ " flt",
              (fun () -> atom_bat (Bat.aggr_all aggr bf)),
              fun () -> atom_bat (Old.aggr_all aggr bf) );
          ])
      aggrs

(* Pools of 1, 2 and 4 domains, [min_rows 0] so that tiny BATs split;
   the knobs are restored however [f] ends. *)
let with_pools f =
  Parkernel.set_min_rows 0;
  let pools = List.map (fun d -> (d, Parkernel.create d)) domain_counts in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      List.iter (fun (_, p) -> Parkernel.shutdown p) pools)
    (fun () -> f pools)

(* Run [cases] under every pool and morsel size; each must match its
   oracle exactly. *)
let check_cases pools cases =
  List.iter
    (fun (d, pool) ->
      Array.iter
        (fun msz ->
          Parkernel.set_morsel_size msz;
          List.iter
            (fun (label, run, oracle) ->
              let expected = oracle () in
              let got = Parkernel.with_pool pool run in
              if not (same expected got) then
                Alcotest.failf "%s @%dd/m%d: differs from the sequential kernel" label d msz)
            cases)
        morsel_sizes)
    pools

let test_merge_order () =
  with_pools (fun pools ->
      check_cases pools (battery 200);
      List.iter
        (fun (d, pool) ->
          Alcotest.(check bool)
            (Printf.sprintf "the %d-domain pool ran morsels" d)
            true
            ((Parkernel.totals pool).Parkernel.t_morsels > 0))
        pools;
      (* float sums are not associative: their aggregates run as one
         range, scheduling no morsel at all *)
      let _, pool4 = List.nth pools 2 in
      Parkernel.set_morsel_size 1;
      let bf = flts_bat 200 in
      List.iter
        (fun (label, run) ->
          let before = (Parkernel.totals pool4).Parkernel.t_morsels in
          ignore (Parkernel.with_pool pool4 run);
          Alcotest.(check int) (label ^ " schedules no morsel") before
            (Parkernel.totals pool4).Parkernel.t_morsels)
        [
          ("float group sum", fun () -> Bat.group_aggr Bat.Sum bf);
          ("float group avg", fun () -> Bat.group_aggr Bat.Avg bf);
          ("float whole sum", fun () -> atom_bat (Bat.aggr_all Bat.Sum bf));
          ("float whole avg", fun () -> atom_bat (Bat.aggr_all Bat.Avg bf));
          ("float whole prod", fun () -> atom_bat (Bat.aggr_all Bat.Prod bf));
        ])

let test_float_specials () =
  with_pools (fun pools ->
      let specials =
        Bat.make
          (oids 8 (fun i -> i mod 2))
          (Column.F [| 0.0; -0.0; Float.nan; 1.5; Float.infinity; -3.25; Float.nan; 0.5 |])
      in
      let zeros =
        Bat.make (oids 6 (fun i -> i mod 2)) (Column.F [| -0.0; 0.0; 0.0; -0.0; 0.0; 0.0 |])
      in
      check_cases pools
        (List.concat_map
           (fun (what, b) ->
             List.concat_map
               (fun (name, aggr) ->
                 [
                   ( Printf.sprintf "%s group %s" what name,
                     (fun () -> Bat.group_aggr aggr b),
                     fun () -> Old.group_aggr aggr b );
                   ( Printf.sprintf "%s fold %s" what name,
                     (fun () -> atom_bat (Bat.aggr_all aggr b)),
                     fun () -> atom_bat (Old.aggr_all aggr b) );
                 ])
               [ ("min", Bat.Min); ("max", Bat.Max) ])
           [ ("NaN/zero", specials); ("signed zeros", zeros) ]))

(* Calc2 MinOp over an int and a float column promotes to float; the
   kernel has no mixed-type typed loop and must take the boxed path,
   not misclassify — directly and through a licensed plan *)
let test_mixed_calc2 () =
  let n = 64 in
  let i_bat = Bat.make (oids n (fun i -> i)) (Column.I (Array.init n (fun i -> i - 30))) in
  let f_bat =
    Bat.make (oids n (fun i -> i)) (Column.F (Array.init n (fun i -> Float.of_int (40 - i) /. 4.0)))
  in
  let catalog = Catalog.create () in
  Catalog.put catalog "i" i_bat;
  Catalog.put catalog "f" f_bat;
  with_pools (fun pools ->
      check_cases pools
        [
          ( "mixed calc2 min",
            (fun () -> Bat.calc2 Bat.MinOp i_bat f_bat),
            fun () -> Old.calc2 Bat.MinOp i_bat f_bat );
        ];
      let plan = Mil.Calc2 (Bat.MinOp, Mil.Get "i", Mil.Get "f") in
      let expected = Old.calc2 Bat.MinOp i_bat f_bat in
      let safe = (verdict catalog plan).Effcheck.safe in
      List.iter
        (fun (_, pool) ->
          let got = Mil.exec (Mil.session ~par:{ Mil.pool; safe } catalog) plan in
          Alcotest.(check bool) "mixed int/float Calc2 matches sequential" true (same expected got))
        pools)

(* {1 Morsel edge cases} *)

let test_morsel_edges () =
  with_pools (fun pools ->
      List.iter
        (fun (label, n) ->
          check_cases pools
            (List.map (fun (op, run, oracle) -> (label ^ ": " ^ op, run, oracle)) (battery n)))
        [ ("empty BAT", 0); ("single row", 1); ("morsel larger than BAT", 10) ])

(* Geometry comes from the rows in hand: with the default knobs, an
   input above [min_rows] but under one default morsel still gives each
   domain of the pool a morsel. *)
let test_ranges_small_input () =
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () -> Parkernel.shutdown pool)
    (fun () ->
      let parts =
        Parkernel.with_pool pool (fun () -> Parkernel.ranges 5000 (fun lo hi -> (lo, hi)))
      in
      Alcotest.(check (array (pair int int)))
        "5000 rows at 2 domains split in two" [| (0, 2500); (2500, 5000) |] parts)

(* {1 Observability: stats and trace attributes} *)

let test_stats_and_trace () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.SelectCmp (Mil.Get "ints", Bat.Gt, Atom.Int 5) in
      let safe = (verdict catalog plan).Effcheck.safe in
      let tr = Trace.create () in
      let s = Mil.session ~trace:tr ~par:{ Mil.pool; safe } catalog in
      ignore (Mil.exec s plan);
      let st = Mil.stats s in
      Alcotest.(check bool) "par_ops counted" true (st.Mil.par_ops > 0);
      Alcotest.(check bool) "par_morsels counted" true (st.Mil.par_morsels > 0);
      let has_par_attr = ref false in
      (match Trace.root tr with
      | None -> Alcotest.fail "no span recorded"
      | Some sp ->
        Trace.fold
          (fun () (s : Trace.span) ->
            if List.mem_assoc "par" s.Trace.attrs then has_par_attr := true)
          () sp);
      Alcotest.(check bool) "span carries the par attribute" true !has_par_attr;
      let t = Parkernel.totals pool in
      Alcotest.(check bool) "pool totals accumulated" true
        (t.Parkernel.t_jobs > 0 && t.Parkernel.t_morsels > 0))

(* {1 Licence scope: an unsafe child under a safe parent}

   The licence covers a node's own operator call, not its inputs: with
   only the parent selection licensed, the child (a foreign operator
   recording whether it saw a pool and running a kernel scan of its
   own) runs with no pool current, and only the parent goes
   parallel. *)

let test_unsafe_child () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let saw_pool = ref true in
      let child_morsels = ref (-1) in
      let probe ~name:_ ~args ~meta:_ =
        saw_pool := Parkernel.current () <> None;
        let before = (Parkernel.totals pool).Parkernel.t_morsels in
        let b = Bat.select_cmp (List.hd args) Bat.Ge (Atom.Int 0) in
        child_morsels := (Parkernel.totals pool).Parkernel.t_morsels - before;
        b
      in
      let child = Mil.Foreign { name = "test.probe"; args = [ Mil.Get "ints" ]; meta = [] } in
      let plan = Mil.SelectCmp (child, Bat.Gt, Atom.Int 5) in
      let safe p = p == plan in
      let s = Mil.session ~foreign:probe ~par:{ Mil.pool; safe } catalog in
      let got = Mil.exec s plan in
      Alcotest.(check bool) "the unsafe child saw no pool" false !saw_pool;
      Alcotest.(check int) "the child's scan ran as one range" 0 !child_morsels;
      Alcotest.(check int) "only the parent went parallel" 1 (Mil.stats s).Mil.par_ops;
      let expected =
        Mil.exec (Mil.session ~foreign:probe catalog) plan
      in
      Alcotest.(check bool) "same result as sequential" true (same expected got))

(* {1 The corpus through Eval.query under the default pool} *)

let test_corpus () =
  let st = Corpus.storage () in
  let run () =
    List.map
      (fun src ->
        match Parser.parse_expr src with
        | Error e -> Alcotest.failf "corpus query %S does not parse: %s" src e
        | Ok expr -> (src, Eval.query st expr))
      Corpus.queries
  in
  let sequential = run () in
  Parkernel.set_min_rows 0;
  Parkernel.set_domains 2;
  let parallel =
    Fun.protect
      ~finally:(fun () ->
        Parkernel.set_domains 1;
        Parkernel.set_min_rows 2048)
      run
  in
  let par_ops = ref 0 in
  List.iter2
    (fun (src, seq) (_, par) ->
      match (seq, par) with
      | Ok a, Ok b ->
        par_ops := !par_ops + b.Eval.par_ops;
        if not (Value.equal a.Eval.value b.Eval.value) then
          Alcotest.failf "corpus query %S: the 2-domain value differs" src
      | Error a, Error b when a = b -> ()
      | _ -> Alcotest.failf "corpus query %S: the 2-domain outcome differs" src)
    sequential parallel;
  Alcotest.(check bool)
    (Printf.sprintf "some corpus operator ran parallel (%d par ops)" !par_ops)
    true (!par_ops > 0)

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random plans at 1/2/4 domains, bitwise equal"
               plans_to_generate)
            `Slow test_differential;
          Alcotest.test_case "corpus queries at 2 domains equal sequential" `Quick test_corpus;
        ] );
      ( "unsafe-operator",
        [
          Alcotest.test_case "Effcheck flags the undeclared writer" `Quick
            test_effcheck_flags_unsafe;
          Alcotest.test_case "scheduler refuses the unsafe partition" `Quick
            test_scheduler_refuses_unsafe;
          Alcotest.test_case "sanitizer catches it when forced through" `Quick
            test_sanitizer_catches_forced;
          Alcotest.test_case "an unsafe child under a safe parent runs sequentially" `Quick
            test_unsafe_child;
        ] );
      ( "merge-order",
        [
          Alcotest.test_case "aggregates are domain-count independent" `Quick
            test_merge_order;
          Alcotest.test_case "float NaN and signed zeros" `Quick test_float_specials;
          Alcotest.test_case "mixed int/float Calc2 falls back" `Quick test_mixed_calc2;
        ] );
      ( "morsels",
        [
          Alcotest.test_case "empty, single-row and oversized morsels" `Quick
            test_morsel_edges;
          Alcotest.test_case "an input under one morsel spreads over the pool" `Quick
            test_ranges_small_input;
          Alcotest.test_case "stats and trace attributes" `Quick test_stats_and_trace;
        ] );
    ]
