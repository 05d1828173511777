(* Seeded random MIL plan generation, shared by the fuzz and parallel
   test suites.

   A deterministic generator grows a pool of well-typed random plans
   over a small fixture catalog: each step wraps randomly chosen pool
   members in a randomly chosen operator whose typing precondition they
   satisfy.

   Deliberately excluded operators: Div/Pow (division by a randomly
   zero constant; Pow widens to float with rounding concerns),
   Log/Exp/Sqrt (NaN results break bit-for-bit comparison), AggrAll
   Min/Max/Avg (raise on empty input by contract) and Foreign (the
   fixture has no extension registry).  GroupRank pairs any link with
   any key of the same head type; heads that never meet rank every
   element as missing. *)

module Prng = Mirror_util.Prng
module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil

type entry = { plan : Mil.t; hty : Atom.ty; tty : Atom.ty }

let words = [| "alpha"; "bravo"; "carol"; "delta"; "echo"; "fox" |]

let fixture () =
  let c = Catalog.create () in
  let dense_int name n f =
    Catalog.put c name
      (Bat.of_pairs Atom.TOid Atom.TInt (List.init n (fun i -> (Atom.Oid i, Atom.Int (f i)))))
  in
  dense_int "ints" 16 (fun i -> (i * 7) mod 23);
  dense_int "ints2" 11 (fun i -> 40 - (i * 3));
  Catalog.put c "flts"
    (Bat.of_pairs Atom.TOid Atom.TFlt
       (List.init 14 (fun i -> (Atom.Oid i, Atom.Flt (Float.of_int (i * i) /. 4.0)))));
  Catalog.put c "strs"
    (Bat.of_pairs Atom.TOid Atom.TStr
       (List.init 10 (fun i -> (Atom.Oid i, Atom.Str words.(i mod Array.length words)))));
  Catalog.put c "bools"
    (Bat.of_pairs Atom.TOid Atom.TBool
       (List.init 13 (fun i -> (Atom.Oid i, Atom.Bool (i mod 3 = 0)))));
  Catalog.put c "link"
    (Bat.of_pairs Atom.TOid Atom.TOid
       (List.init 16 (fun i -> (Atom.Oid i, Atom.Oid (i mod 5)))));
  Catalog.put c "empty" (Bat.of_pairs Atom.TOid Atom.TInt []);
  c

let fixture_names = [ "ints"; "ints2"; "flts"; "strs"; "bools"; "link"; "empty" ]

let seed_pool catalog names =
  List.map
    (fun name ->
      let b = Catalog.get catalog name in
      { plan = Mil.Get name; hty = Bat.hty b; tty = Bat.tty b })
    names

let is_num ty = ty = Atom.TInt || ty = Atom.TFlt

let const_of g ty =
  match ty with
  | Atom.TInt -> Atom.Int (Prng.int g 60 - 30)
  | Atom.TFlt -> Atom.Flt (Float.of_int (Prng.int g 80 - 40) /. 4.0)
  | Atom.TStr -> Atom.Str (Prng.choose g words)
  | Atom.TBool -> Atom.Bool (Prng.bool g)
  | Atom.TOid -> Atom.Oid (Prng.int g 16)

(* Candidate constructors.  Each takes the prng and the pool and
   returns Some (plan, head type, tail type), or None when no pool
   entry satisfies its precondition. *)

let pick g pool pred =
  match List.filter pred pool with
  | [] -> None
  | matching -> Some (List.nth matching (Prng.int g (List.length matching)))

let any _ = true

let generators :
    (string * (Prng.t -> entry list -> (Mil.t * Atom.ty * Atom.ty) option)) array =
  [|
    ( "lit",
      fun g _ ->
        let tty = Prng.choose g [| Atom.TInt; Atom.TFlt; Atom.TStr; Atom.TBool |] in
        let n = Prng.int g 6 in
        let pairs = List.init n (fun i -> (Atom.Oid i, const_of g tty)) in
        Some (Mil.Lit { hty = Atom.TOid; tty; pairs }, Atom.TOid, tty) );
    ( "reverse",
      fun g pool ->
        Option.map (fun e -> (Mil.Reverse e.plan, e.tty, e.hty)) (pick g pool any) );
    ( "mirror",
      fun g pool ->
        Option.map (fun e -> (Mil.Mirror e.plan, e.hty, e.hty)) (pick g pool any) );
    ( "mark",
      fun g pool ->
        Option.map
          (fun e -> (Mil.Mark (e.plan, Prng.int g 100), e.hty, Atom.TOid))
          (pick g pool any) );
    ( "number_head",
      fun g pool ->
        Option.map
          (fun e -> (Mil.NumberHead (e.plan, Prng.int g 100), Atom.TOid, e.hty))
          (pick g pool any) );
    ( "number_tail",
      fun g pool ->
        Option.map
          (fun e -> (Mil.NumberTail (e.plan, Prng.int g 100), Atom.TOid, e.tty))
          (pick g pool any) );
    ( "project",
      fun g pool ->
        Option.map
          (fun e ->
            let ty = Prng.choose g [| Atom.TInt; Atom.TFlt; Atom.TStr; Atom.TBool |] in
            (Mil.Project (e.plan, const_of g ty), e.hty, ty))
          (pick g pool any) );
    ( "calc1",
      fun g pool ->
        Option.map
          (fun e ->
            if e.tty = Atom.TBool then (Mil.Calc1 (Bat.Not, e.plan), e.hty, Atom.TBool)
            else
              match Prng.int g 3 with
              | 0 -> (Mil.Calc1 (Bat.Neg, e.plan), e.hty, e.tty)
              | 1 -> (Mil.Calc1 (Bat.Abs, e.plan), e.hty, e.tty)
              | _ -> (Mil.Calc1 (Bat.ToFlt, e.plan), e.hty, Atom.TFlt))
          (pick g pool (fun e -> is_num e.tty || e.tty = Atom.TBool)) );
    ( "calc_const",
      fun g pool ->
        Option.map
          (fun e ->
            let op = Prng.choose g Bat.[| Add; Sub; Mul; MinOp; MaxOp |] in
            let c = const_of g e.tty in
            if Prng.bool g then (Mil.CalcConst (op, e.plan, c), e.hty, e.tty)
            else (Mil.ConstCalc (op, c, e.plan), e.hty, e.tty))
          (pick g pool (fun e -> is_num e.tty)) );
    ( "calc_cmp",
      fun g pool ->
        Option.map
          (fun e ->
            let c = Prng.choose g Bat.[| Eq; Ne; Lt; Le; Gt; Ge |] in
            (Mil.CalcConst (Bat.CmpOp c, e.plan, const_of g e.tty), e.hty, Atom.TBool))
          (pick g pool (fun e -> e.tty <> Atom.TBool)) );
    ( "calc2",
      fun g pool ->
        Option.map
          (fun e ->
            if e.tty = Atom.TBool then
              let op = if Prng.bool g then Bat.And else Bat.Or in
              (Mil.Calc2 (op, e.plan, e.plan), e.hty, Atom.TBool)
            else
              let op = Prng.choose g Bat.[| Add; Sub; Mul; MinOp; MaxOp |] in
              (Mil.Calc2 (op, e.plan, e.plan), e.hty, e.tty))
          (pick g pool (fun e -> is_num e.tty || e.tty = Atom.TBool)) );
    ( "select_cmp",
      fun g pool ->
        Option.map
          (fun e ->
            let c = Prng.choose g Bat.[| Eq; Ne; Lt; Le; Gt; Ge |] in
            (Mil.SelectCmp (e.plan, c, const_of g e.tty), e.hty, e.tty))
          (pick g pool any) );
    ( "select_range",
      fun g pool ->
        Option.map
          (fun e ->
            let lo, hi =
              match e.tty with
              | Atom.TInt ->
                let a = Prng.int g 40 - 20 in
                (Atom.Int a, Atom.Int (a + Prng.int g 30))
              | Atom.TFlt ->
                let a = Float.of_int (Prng.int g 40 - 20) /. 2.0 in
                (Atom.Flt a, Atom.Flt (a +. Float.of_int (Prng.int g 20)))
              | Atom.TOid ->
                let a = Prng.int g 10 in
                (Atom.Oid a, Atom.Oid (a + Prng.int g 10))
              | Atom.TStr -> (Atom.Str "a", Atom.Str "z")
              | Atom.TBool -> (Atom.Bool false, Atom.Bool true)
            in
            (Mil.SelectRange (e.plan, lo, hi), e.hty, e.tty))
          (pick g pool any) );
    ( "select_bool",
      fun g pool ->
        Option.map
          (fun e -> (Mil.SelectBool e.plan, e.hty, e.tty))
          (pick g pool (fun e -> e.tty = Atom.TBool)) );
    ( "join",
      fun g pool ->
        Option.bind (pick g pool any) (fun l ->
            Option.map
              (fun r -> (Mil.Join (l.plan, r.plan), l.hty, r.tty))
              (pick g pool (fun r -> r.hty = l.tty))) );
    ( "leftouterjoin",
      fun g pool ->
        Option.bind (pick g pool any) (fun l ->
            Option.map
              (fun r ->
                (Mil.LeftOuterJoin (l.plan, r.plan, const_of g r.tty), l.hty, r.tty))
              (pick g pool (fun r -> r.hty = l.tty))) );
    ( "semijoin",
      fun g pool ->
        Option.bind (pick g pool any) (fun l ->
            Option.map
              (fun r ->
                let node =
                  if Prng.bool g then Mil.Semijoin (l.plan, r.plan)
                  else Mil.Antijoin (l.plan, r.plan)
                in
                (node, l.hty, l.tty))
              (pick g pool (fun r -> r.hty = l.hty))) );
    ( "union_diff",
      fun g pool ->
        Option.bind (pick g pool any) (fun l ->
            Option.map
              (fun r ->
                let node =
                  match Prng.int g 5 with
                  | 0 -> Mil.Kunion (l.plan, r.plan)
                  | 1 -> Mil.PairUnion (l.plan, r.plan)
                  | 2 -> Mil.PairDiff (l.plan, r.plan)
                  | 3 -> Mil.PairInter (l.plan, r.plan)
                  | _ -> Mil.Append (l.plan, r.plan)
                in
                (node, l.hty, l.tty))
              (pick g pool (fun r -> r.hty = l.hty && r.tty = l.tty))) );
    ( "unique",
      fun g pool ->
        Option.map
          (fun e ->
            let node = if Prng.bool g then Mil.Unique e.plan else Mil.UniqueHead e.plan in
            (node, e.hty, e.tty))
          (pick g pool any) );
    ( "group_aggr",
      fun g pool ->
        Option.map
          (fun e ->
            match Prng.int g 4 with
            | 0 -> (Mil.GroupAggr (Bat.Count, e.plan), e.hty, Atom.TInt)
            | 1 -> (Mil.GroupAggr (Bat.Avg, e.plan), e.hty, Atom.TFlt)
            | 2 -> (Mil.GroupAggr (Bat.Min, e.plan), e.hty, e.tty)
            | _ -> (Mil.GroupAggr (Bat.Sum, e.plan), e.hty, e.tty))
          (pick g pool (fun e -> is_num e.tty)) );
    ( "aggr_all",
      fun g pool ->
        if Prng.bool g then
          Option.map
            (fun e -> (Mil.AggrAll (Bat.Count, e.plan), Atom.TOid, Atom.TInt))
            (pick g pool any)
        else
          Option.map
            (fun e -> (Mil.AggrAll (Bat.Sum, e.plan), Atom.TOid, e.tty))
            (pick g pool (fun e -> is_num e.tty)) );
    ( "sort_tail",
      fun g pool ->
        Option.map
          (fun e -> (Mil.SortTail (e.plan, Prng.bool g), e.hty, e.tty))
          (pick g pool any) );
    ( "slice",
      fun g pool ->
        Option.map
          (fun e -> (Mil.Slice (e.plan, Prng.int g 5, Prng.int g 20), e.hty, e.tty))
          (pick g pool any) );
    ( "topn",
      fun g pool ->
        Option.map
          (fun e -> (Mil.TopN (e.plan, 1 + Prng.int g 10, Prng.bool g), e.hty, e.tty))
          (pick g pool any) );
    ( "group_rank",
      fun g pool ->
        Option.bind (pick g pool any) (fun link ->
            Option.map
              (fun key ->
                let limit = if Prng.bool g then Some (Prng.int g 6) else None in
                let rank =
                  Mil.GroupRank { link = link.plan; key = key.plan; desc = Prng.bool g; limit }
                in
                (* take's cut, which Milopt fuses into the limit *)
                let node =
                  if Prng.int g 3 = 0 then Mil.SelectCmp (rank, Bat.Lt, Atom.Int (Prng.int g 6))
                  else rank
                in
                (node, link.hty, Atom.TInt))
              (pick g pool (fun key -> key.hty = link.hty))) );
  |]

let generate g pool =
  let rec attempt k =
    if k = 0 then
      (* always possible: reverse a random entry *)
      let e = List.nth pool (Prng.int g (List.length pool)) in
      (Mil.Reverse e.plan, e.tty, e.hty)
    else
      let _, gen = Prng.choose g generators in
      match gen g pool with Some c -> c | None -> attempt (k - 1)
  in
  attempt 8
