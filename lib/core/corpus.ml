module Atom = Mirror_bat.Atom

(* R : SET< TUPLE< a:int, b:int, s:SET<int>, c:CONTREP<str> > > — the
   same extent the equivalence tests use, so corpus plans exercise
   every layer (tuples, nested sets, CONTREP bundles). *)
let schema =
  Types.Set
    (Types.Tuple
       [
         ("a", Types.Atomic Atom.TInt);
         ("b", Types.Atomic Atom.TInt);
         ("s", Types.Set (Types.Atomic Atom.TInt));
         ("c", Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ]));
       ])

let row a b s c =
  Value.Tup
    [
      ("a", Value.int a);
      ("b", Value.int b);
      ("s", Value.VSet (List.map Value.int s));
      ("c", Value.contrep c);
    ]

let rows =
  [
    row 1 2 [ 1; 2; 3 ] [ ("cat", 2.0); ("stripe", 1.0) ];
    row 2 2 [ 4 ] [ ("dog", 1.0) ];
    row (-1) 0 [] [];
    row 2 5 [ 2; 2 ] [ ("cat", 1.0); ("dog", 3.0) ];
  ]

let storage () =
  Bootstrap.ensure ();
  let st = Storage.create () in
  (match Storage.define st ~name:"R" schema with
  | Ok () -> ()
  | Error e -> failwith ("Corpus.storage: " ^ e));
  match Storage.load st ~name:"R" rows with
  | Ok _ -> st
  | Error e -> failwith ("Corpus.storage: " ^ e)

(* One query per pipeline feature: projections, arithmetic,
   selections, nested-set aggregates, joins (equi and theta), set
   operations, nest/unnest, broadcasting, LIST and CONTREP operators,
   correlated subqueries.  The analyzer, the differential checker and
   [mirror_cli lint] all sweep this list. *)
let queries =
  [
    "map[THIS.a](R)";
    "map[THIS.a + THIS.b](R)";
    "map[THIS.a * 2 - 1](R)";
    "select[THIS.a > 0](R)";
    "select[THIS.a = 2 and THIS.b >= 2](R)";
    "select[not (THIS.a > 0)](R)";
    "map[sum(THIS.s)](R)";
    "map[count(THIS.s)](R)";
    "map[max(THIS.s)](R)";
    "map[avg(THIS.s)](R)";
    "select[exists(THIS.s)](R)";
    "map[tuple(x: THIS.a, y: count(THIS.s))](R)";
    "sum(map[THIS.a](R))";
    "count(R)";
    "map[select[THIS > 1](THIS.s)](R)";
    "map[map[THIS + 1](THIS.s)](R)";
    "join[THIS1.a = THIS2.b](R, R)";
    "join[THIS1.a < THIS2.a; x, y](R, R)";
    "semijoin[THIS1.a = THIS2.a and THIS1.b < THIS2.b](R, R)";
    "count(semijoin[THIS1.a = THIS2.a + 1](R, R))";
    "semijoin[THIS1 = THIS2 + 1]({1, 2, 3}, {2, 3})";
    "map[union(THIS.s, {1, 9})](R)";
    "map[diff(THIS.s, {2})](R)";
    "map[inter(THIS.s, {2, 4})](R)";
    "map[in(THIS.a, THIS.s)](R)";
    "flatten(map[THIS.s](R))";
    "nest[a, grp](map[tuple(a: THIS.a, b: THIS.b)](R))";
    "unnest[s](map[tuple(a: THIS.a, s: THIS.s)](R))";
    "map[count(R)](R)";
    "map[THIS.a + sum(map[THIS.b](R))](R)";
    "map[exists(select[THIS.a > 90](R))](R)";
    "map[count(select[THIS.b = 2](R))](select[THIS.a > 0](R))";
    "map[getBL(THIS.c, {'cat', 'zebra'}, stats)](R)";
    "map[sum(getBL(THIS.c, {'cat'}))](R)";
    "map[terms(THIS.c)](R)";
    "toset(take(tolist_desc(map[tuple(a: THIS.a, b: THIS.b)](R), 'b'), 2))";
    "take(tolist(map[THIS.a](R), ''), 3)";
    "map[THIS.a >= 2 or THIS.b = 0](R)";
    "select[in(2, THIS.s)](R)";
    "1 + 2 * 3";
    "map[count(distinct(THIS.s))](R)";
    "map[min2(THIS.a, THIS.b) + max2(THIS.a, 1)](R)";
    "map[pow(THIS.b, 2)](R)";
    "map[x: sum(map[y: y + x.a](x.s))](R)";
    "count(select[getBLnet(THIS.c, '#and( cat dog )') > 0.2](R))";
    "map[x: count(select[y: y.a = x.a](R))](R)";
    "map[x: sum(getBL(x.c, terms(x.c)))](select[THIS.a > 0](R))";
    "distinct(flatten(map[THIS.s](R)))";
    "map[tf(THIS.c, 'cat')](R)";
    "map[clen(THIS.c)](R)";
    "sum(map[sum(getBL(THIS.c, {'cat'}))](R))";
    "map[terms(THIS.c)](select[THIS.a > 0](R))";
    "map[sum(getBL(THIS.c, {'cat', 'dog'}))](select[THIS.a > 0](R))";
    "map[sum(getBL(THIS.left.c, {'cat'}))](join[THIS1.a = THIS2.a](R, R))";
    "map[sum(getBL(THIS.c, terms(THIS.c)))](R)";
    "map[getBLnet(THIS.c, '#sum( cat dog )')](R)";
    "map[getBLnet(THIS.c, '#wsum( cat^3 #and( dog stripe ) )')](R)";
    "map[count(join[THIS1 = THIS2](THIS.s, THIS.s))](R)";
    "map[count(join[THIS1 < THIS2](THIS.s, THIS.s))](R)";
  ]
