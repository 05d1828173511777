(* Tests for the Moa object algebra and the Mirror facade (mirror_core). *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Expr = Mirror_core.Expr
module Typecheck = Mirror_core.Typecheck
module Storage = Mirror_core.Storage
module Naive = Mirror_core.Naive
module Flatten = Mirror_core.Flatten
module Optimize = Mirror_core.Optimize
module Eval = Mirror_core.Eval
module Parser = Mirror_core.Parser
module Extension = Mirror_core.Extension
module Bootstrap = Mirror_core.Bootstrap
module Mirror = Mirror_core.Mirror
module Feedback = Mirror_core.Feedback
module Prng = Mirror_util.Prng
module Synth = Mirror_mm.Synth

let () = Bootstrap.ensure ()

let value_testable = Alcotest.testable Value.pp Value.equal

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* {1 Fixtures} *)

(* R : SET< TUPLE< a:int, b:int, s:SET<int>, c:CONTREP<str> > > *)
let r_type =
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

let default_rows =
  [
    row 1 2 [ 1; 2; 3 ] [ ("cat", 2.0); ("stripe", 1.0) ];
    row 2 2 [ 4 ] [ ("dog", 1.0) ];
    row (-1) 0 [] [];
    row 2 5 [ 2; 2 ] [ ("cat", 1.0); ("dog", 3.0) ];
  ]

let storage_with rows =
  let st = Storage.create () in
  ok (Storage.define st ~name:"R" r_type);
  ignore (ok (Storage.load st ~name:"R" rows));
  st

(* The query battery both evaluators must agree on. *)
let battery =
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
    "map[union(THIS.s, {1, 9})](R)";
    "map[diff(THIS.s, {2})](R)";
    "map[inter(THIS.s, {2, 4})](R)";
    "map[in(THIS.a, THIS.s)](R)";
    "flatten(map[THIS.s](R))";
    "nest[a, grp](map[tuple(a: THIS.a, b: THIS.b)](R))";
    "unnest[s](map[tuple(a: THIS.a, s: THIS.s)](R))";
    "map[count(unnest[s](map[tuple(x: THIS.a, s: THIS.s)](R)))](R)";
    (* context-independent sets consumed per context must broadcast *)
    "map[count(R)](R)";
    "map[THIS.a + sum(map[THIS.b](R))](R)";
    "map[exists(select[THIS.a > 90](R))](R)";
    "map[count(select[THIS.b = 2](R))](select[THIS.a > 0](R))";
    "unnest[items](map[tuple(k: THIS.a, items: map[tuple(v: THIS)](THIS.s))](R))";
    "map[getBL(THIS.c, {'cat', 'zebra'}, stats)](R)";
    "map[sum(getBL(THIS.c, {'cat'}))](R)";
    "map[sum(getBL(THIS.c, {'cat', 'dog', 'stripe'}))](R)";
    "map[terms(THIS.c)](R)";
    "toset(take(tolist_desc(map[tuple(a: THIS.a, b: THIS.b)](R), 'b'), 2))";
    "take(tolist(map[THIS.a](R), ''), 3)";
    "map[THIS.a >= 2 or THIS.b = 0](R)";
    "select[in(2, THIS.s)](R)";
    "1 + 2 * 3";
    "map[count(distinct(THIS.s))](R)";
    "map[min2(THIS.a, THIS.b) + max2(THIS.a, 1)](R)";
    "map[pow(THIS.b, 2)](R)";
    (* explicit binder names reach outer scopes *)
    "map[x: sum(map[y: y + x.a](x.s))](R)";
    "map[x: count(select[y: y > x.b](x.s))](R)";
    "count(select[getBLnet(THIS.c, '#and( cat dog )') > 0.2](R))";
    (* correlated subqueries: outer variables inside inner binders *)
    "map[x: count(select[y: y.a = x.a](R))](R)";
    "map[x: sum(getBL(x.c, terms(x.c)))](select[THIS.a > 0](R))";
    "map[x: exists(select[y: in(y, x.s)]({1, 4}))](R)";
    "map[x: count(join[y, z: y + z = x.a](x.s, x.s))](R)";
    "distinct(flatten(map[THIS.s](R)))";
    "map[tf(THIS.c, 'cat')](R)";
    "map[clen(THIS.c)](R)";
    "map[0.4 + 0.6 * (tf(THIS.c,'cat') / (tf(THIS.c,'cat') + 0.5 + 1.5 * clen(THIS.c)))](R)";
    "sum(map[sum(getBL(THIS.c, {'cat'}))](R))";
    (* CONTREP after selection exercises candidate-list filtering *)
    "map[terms(THIS.c)](select[THIS.a > 0](R))";
    "map[sum(getBL(THIS.c, {'cat', 'dog'}))](select[THIS.a > 0](R))";
    "flatten(map[terms(THIS.c)](select[THIS.b >= 2](R)))";
    "map[clen(THIS.c)](select[THIS.a > 0](R))";
    "map[tf(THIS.c, 'dog')](select[THIS.a >= 2](R))";
    (* CONTREP through joins exercises rebasing *)
    "map[sum(getBL(THIS.left.c, {'cat'}))](join[THIS1.a = THIS2.a](R, R))";
    (* context-dependent queries: each document queried with its own
       term set (the flattened query link is genuinely per-context) *)
    "map[sum(getBL(THIS.c, terms(THIS.c)))](R)";
    "map[sum(getBL(THIS.c, union(terms(THIS.c), {'zebra'})))](R)";
    (* full inference-network operator trees *)
    "map[getBLnet(THIS.c, '#sum( cat dog )')](R)";
    "map[getBLnet(THIS.c, '#wsum( cat^3 #and( dog stripe ) )')](R)";
    "map[getBLnet(THIS.c, '#or( cat #not( dog ) )')](select[THIS.a > 0](R))";
    (* joins nested inside map exercise the per-context equi-join
       (candidate pairs must not leak across contexts) *)
    "map[count(join[THIS1 = THIS2](THIS.s, THIS.s))](R)";
    "map[count(semijoin[THIS1 = THIS2 + 1](THIS.s, THIS.s))](R)";
    "map[count(join[THIS1 < THIS2](THIS.s, THIS.s))](R)";
  ]

let parse_q src = ok (Parser.parse_expr src)

let check_equivalence st src =
  let expr = parse_q src in
  let naive = Naive.eval st expr in
  List.iter
    (fun (optimize, cse, label) ->
      match Eval.query ~optimize ~cse st expr with
      | Error e -> Alcotest.failf "%s [%s]: %s" src label e
      | Ok report ->
        Alcotest.check value_testable (Printf.sprintf "%s [%s]" src label) naive
          report.Eval.value)
    [ (false, true, "plain"); (true, true, "optimized"); (false, false, "no-cse") ]

(* {1 Types and values} *)

let test_types_pp_and_equal () =
  Alcotest.(check string) "pp"
    "SET< TUPLE< Atomic<str>: source, CONTREP< Atomic<str> >: annotation > >"
    (Types.to_string
       (Types.Set
          (Types.Tuple
             [
               ("source", Types.Atomic Atom.TStr);
               ("annotation", Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ]));
             ])));
  Alcotest.(check bool) "equal" true (Types.equal r_type r_type);
  Alcotest.(check bool) "not equal" false (Types.equal r_type (Types.Set (Types.Atomic Atom.TInt)))

let test_types_well_labelled () =
  Alcotest.(check bool) "ok" true (Types.well_labelled r_type);
  Alcotest.(check bool) "dup labels" false
    (Types.well_labelled
       (Types.Tuple [ ("x", Types.Atomic Atom.TInt); ("x", Types.Atomic Atom.TInt) ]))

let test_value_set_semantics () =
  let a = Value.VSet [ Value.int 1; Value.int 2 ] in
  let b = Value.VSet [ Value.int 2; Value.int 1 ] in
  Alcotest.check value_testable "order-insensitive" a b;
  Alcotest.(check bool) "multiset: duplicates matter" false
    (Value.equal (Value.VSet [ Value.int 1; Value.int 1 ]) (Value.VSet [ Value.int 1 ]))

let test_value_contrep_helpers () =
  let c = Value.contrep [ ("cat", 1.0); ("cat", 2.0); ("dog", 1.0) ] in
  Alcotest.(check (list (pair string (float 1e-9)))) "merged bag"
    [ ("cat", 3.0); ("dog", 1.0) ]
    (Value.contrep_bag c);
  Alcotest.(check (option string)) "no space" None (Value.contrep_space c);
  let bound = Value.contrep ~space:"sp" [ ("x", 1.0) ] in
  Alcotest.(check (option string)) "space" (Some "sp") (Value.contrep_space bound)

(* {1 Typecheck} *)

let tc_env st = Storage.typecheck_env st

let test_typecheck_battery () =
  let st = storage_with default_rows in
  List.iter
    (fun src ->
      match Typecheck.infer (tc_env st) (parse_q src) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" src (Typecheck.diag_to_string e))
    battery

let test_typecheck_errors () =
  let st = storage_with default_rows in
  let bad msg src =
    match Typecheck.infer (tc_env st) (parse_q src) with
    | Ok ty -> Alcotest.failf "%s should not typecheck (got %s)" msg (Types.to_string ty)
    | Error _ -> ()
  in
  bad "unknown extent" "map[THIS](Nope)";
  bad "field on non-tuple" "map[THIS.a](map[THIS.a](R))";
  bad "non-bool predicate" "select[THIS.a](R)";
  bad "aggregate of tuples" "sum(R)";
  bad "arithmetic on sets" "map[THIS.s + 1](R)";
  bad "member type mismatch" "map[in('x', THIS.s)](R)";
  bad "getBL on non-contrep" "map[getBL(THIS.s, {'x'})](R)";
  bad "unnest label clash" "unnest[grp](nest[a, grp](map[tuple(a: THIS.a, b: THIS.b)](R)))";
  bad "unnest non-set field" "unnest[a](map[tuple(a: THIS.a)](R))";
  match
    Typecheck.infer (tc_env st) (Expr.ExtOp { op = "frobnicate"; args = [ Expr.Extent "R" ] })
  with
  | Ok _ -> Alcotest.fail "unknown operator should not typecheck"
  | Error _ -> ()

let test_typecheck_results () =
  let st = storage_with default_rows in
  let ty src =
    Types.to_string
      (ok
         (Result.map_error Typecheck.diag_to_string
            (Typecheck.infer (tc_env st) (parse_q src))))
  in
  Alcotest.(check string) "map" "SET< Atomic<int> >" (ty "map[THIS.a](R)");
  Alcotest.(check string) "getbl" "SET< SET< Atomic<flt> > >"
    (ty "map[getBL(THIS.c, {'x'})](R)");
  Alcotest.(check string) "count" "Atomic<int>" (ty "count(R)");
  Alcotest.(check string) "tolist" "LIST< Atomic<int> >" (ty "tolist(map[THIS.a](R), '')")

(* {1 Parser} *)

let test_parser_paper_schema () =
  let src =
    "define TraditionalImgLib as SET< TUPLE< Atomic<URL>: source, CONTREP<Text>: annotation \
     > >;"
  in
  match ok (Parser.parse_program src) with
  | [ Parser.Define ("TraditionalImgLib", ty) ] ->
    Alcotest.(check bool) "type" true
      (Types.equal ty
         (Types.Set
            (Types.Tuple
               [
                 ("source", Types.Atomic Atom.TStr);
                 ("annotation", Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ]));
               ])))
  | _ -> Alcotest.fail "unexpected parse"

let test_parser_paper_query () =
  (* The literal §3 query text. *)
  let src =
    "map[sum(THIS)]( map[getBL(THIS.annotation, query, stats)]( TraditionalImgLib ));"
  in
  let bindings = [ ("query", Expr.lit_str_set [ "cat" ]) ] in
  match ok (Parser.parse_program ~bindings src) with
  | [ Parser.Query (Expr.Map { body = Expr.Aggr (Bat.Sum, Expr.Var v1); v; src = inner }) ]
    -> (
    Alcotest.(check string) "THIS resolves to the outer binder" v v1;
    match inner with
    | Expr.Map { body = Expr.ExtOp { op = "getBL"; args = [ _; Expr.Lit _ ] }; _ } -> ()
    | _ -> Alcotest.fail "inner map shape")
  | _ -> Alcotest.fail "outer shape"

let test_parser_this_nesting () =
  match ok (Parser.parse_expr "map[map[THIS](THIS.s)](R)") with
  | Expr.Map { v = outer; body = Expr.Map { v = inner; body = Expr.Var b; src = Expr.Field (Expr.Var f, "s") }; _ }
    ->
    Alcotest.(check string) "inner THIS" inner b;
    Alcotest.(check string) "outer THIS in src" outer f
  | _ -> Alcotest.fail "shape"

let test_parser_errors () =
  let bad src = match Parser.parse_expr src with Error _ -> () | Ok _ -> Alcotest.failf "%s should fail" src in
  bad "map[THIS](";
  bad "THIS";
  bad "select[x](R) extra";
  bad "{1, 'a'}";
  bad "{}";
  bad "getBL(a, b, 1 + 2)";
  bad "tuple(a 1)"

let test_parser_literals () =
  (match ok (Parser.parse_expr "{1, 2, 3}") with
  | Expr.Lit (Value.VSet items, Types.Set (Types.Atomic Atom.TInt)) ->
    Alcotest.(check int) "3 items" 3 (List.length items)
  | _ -> Alcotest.fail "int set");
  (match ok (Parser.parse_expr "-5") with
  | Expr.Lit (Value.Atom (Atom.Int -5), _) -> ()
  | _ -> Alcotest.fail "negative int");
  match ok (Parser.parse_expr "'hello'") with
  | Expr.Lit (Value.Atom (Atom.Str "hello"), _) -> ()
  | _ -> Alcotest.fail "string"

let test_parser_let_bindings () =
  let m = Mirror.create () in
  ignore (ok (Mirror.exec_program m "define T as SET< Atomic<int> >;"));
  ignore (ok (Mirror.load m ~name:"T" [ Value.int 1; Value.int 5; Value.int 9 ]));
  let outcomes =
    ok (Mirror.exec_program m "let big = select[THIS > 3](T); count(big); sum(big);")
  in
  (match outcomes with
  | [ Mirror.Bound "big"; Mirror.Evaluated c; Mirror.Evaluated s ] ->
    Alcotest.check value_testable "count" (Value.int 2) c;
    Alcotest.check value_testable "sum" (Value.int 14) s
  | _ -> Alcotest.fail "unexpected outcomes");
  (* let is view semantics: rebinding the extent changes the view *)
  ignore (ok (Mirror.load m ~name:"T" [ Value.int 100 ]));
  match ok (Mirror.exec_program m "let big = select[THIS > 3](T); count(big);") with
  | [ _; Mirror.Evaluated c ] -> Alcotest.check value_testable "fresh data" (Value.int 1) c
  | _ -> Alcotest.fail "unexpected outcomes"

let test_parser_type_round_trip () =
  (* Types print in a syntax the parser accepts (needed by the snapshot codec) *)
  List.iter
    (fun ty ->
      let printed = Types.to_string ty in
      match Parser.parse_type printed with
      | Ok back ->
        Alcotest.(check bool) ("round trip: " ^ printed) true (Types.equal ty back)
      | Error e -> Alcotest.failf "%s: %s" printed e)
    [
      r_type;
      Types.Set (Types.Xt ("LIST", [ Types.Tuple [ ("a", Types.Atomic Atom.TInt) ] ]));
      Types.Set (Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ]));
      Types.Set (Types.Tuple [ ("b", Types.Atomic Atom.TBool); ("f", Types.Atomic Atom.TFlt) ]);
    ]

(* {1 Optimizer} *)

let test_optimize_fusion () =
  let e = parse_q "map[THIS + 1](map[THIS * 2](map[THIS.a](R)))" in
  let e', trace = Optimize.rewrite_trace e in
  Alcotest.(check bool) "fired fusion" true (List.mem "map-map-fusion" trace);
  match e' with
  | Expr.Map { src = Expr.Extent "R"; _ } -> ()
  | _ -> Alcotest.failf "not fully fused: %s" (Expr.to_string e')

let test_optimize_select_fusion () =
  let e = parse_q "select[THIS.a > 0](select[THIS.b > 0](R))" in
  let e', trace = Optimize.rewrite_trace e in
  Alcotest.(check bool) "fired" true (List.mem "select-select-fusion" trace);
  match e' with
  | Expr.Select { src = Expr.Extent "R"; _ } -> ()
  | _ -> Alcotest.fail "not fused"

let test_optimize_constant_folding () =
  let e = parse_q "1 + 2 * 3" in
  match Optimize.rewrite e with
  | Expr.Lit (Value.Atom (Atom.Int 7), _) -> ()
  | other -> Alcotest.failf "got %s" (Expr.to_string other)

let test_optimize_more_rules () =
  let fired src rule =
    let _, trace = Optimize.rewrite_trace (parse_q src) in
    Alcotest.(check bool) (rule ^ " fires on " ^ src) true (List.mem rule trace)
  in
  fired "exists(map[THIS.a](R))" "exists-ignores-map";
  fired "count(map[THIS.a + 1](R))" "count-ignores-map";
  fired "select[THIS > 0](map[THIS.a](R))" "select-pushdown";
  fired "map[THIS.a](select[true](R))" "select-true";
  (match Optimize.rewrite (parse_q "map[THIS](R)") with
  | Expr.Extent "R" -> ()
  | other -> Alcotest.failf "identity map not removed: %s" (Expr.to_string other));
  (* pushdown must NOT fire when the map body is expensive *)
  let _, trace =
    Optimize.rewrite_trace
      (parse_q "select[THIS > 0.5](map[sum(getBL(THIS.c, {'cat'}))](R))")
  in
  Alcotest.(check bool) "no pushdown of getBL body" false (List.mem "select-pushdown" trace)

let test_optimize_preserves_semantics () =
  let st = storage_with default_rows in
  List.iter
    (fun src ->
      let e = parse_q src in
      let plain = Naive.eval st e in
      let opt = Naive.eval st (Optimize.rewrite e) in
      Alcotest.check value_testable ("optimize preserves " ^ src) plain opt)
    battery

let test_optimize_subst_capture () =
  (* subst must not capture: replacing y with (free var z named like a binder) *)
  let e =
    Expr.Map { v = "z"; body = Expr.Binop (Bat.Add, Expr.Var "z", Expr.Var "y"); src = Expr.Var "w" }
  in
  let substituted = Optimize.subst e "y" (Expr.Var "z") in
  match substituted with
  | Expr.Map { v; body = Expr.Binop (_, Expr.Var inner, Expr.Var replaced); _ } ->
    Alcotest.(check bool) "binder renamed" true (v <> "z");
    Alcotest.(check string) "bound occurrence follows binder" v inner;
    Alcotest.(check string) "substituted variable survives" "z" replaced
  | _ -> Alcotest.fail "shape"

(* {1 Storage} *)

let test_storage_define_errors () =
  let st = Storage.create () in
  (match Storage.define st ~name:"X" (Types.Atomic Atom.TInt) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-set extent accepted");
  ok (Storage.define st ~name:"X" (Types.Set (Types.Atomic Atom.TInt)));
  (match Storage.define st ~name:"X" (Types.Set (Types.Atomic Atom.TInt)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "redefinition accepted");
  match Storage.define st ~name:"Y" (Types.Set (Types.Xt ("NOPE", []))) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown structure accepted"

let test_storage_load_type_check () =
  let st = Storage.create () in
  ok (Storage.define st ~name:"X" (Types.Set (Types.Atomic Atom.TInt)));
  match Storage.load st ~name:"X" [ Value.str "oops" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ill-typed row accepted"

(* A CONTREP whose items are malformed passes the row type check (it
   names the right extension) and fails inside materialisation, after
   the extent's BATs were cleared: the failed load must leave the
   extent, its rows, its statistics space and its queries as before. *)
let test_storage_failed_load_keeps_extent () =
  let st = storage_with default_rows in
  let queries =
    List.map parse_q
      [ "count(R)"; "map[sum(getBL(THIS.c, {'cat', 'dog'}))](R)"; "sum(map[THIS.a](R))" ]
  in
  let before = List.map (fun q -> ok (Eval.query_value st q)) queries in
  let rows_before = Storage.extent_rows st "R" in
  let space_before = Storage.space_find st "R#el/c" in
  let bad =
    Value.Tup
      [
        ("a", Value.int 9);
        ("b", Value.int 9);
        ("s", Value.VSet []);
        ("c", Value.Xv { ext = "CONTREP"; meta = []; items = [ Value.int 7 ] });
      ]
  in
  (match Storage.load st ~name:"R" [ bad ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a malformed CONTREP was loaded");
  Alcotest.(check int) "extent_count unchanged" 4 (Storage.extent_count st "R");
  Alcotest.(check bool) "rows unchanged" true (Storage.extent_rows st "R" = rows_before);
  Alcotest.(check bool) "the same statistics space" true
    (match (space_before, Storage.space_find st "R#el/c") with
    | Some a, Some b -> a == b
    | _ -> false);
  List.iter2
    (fun q v -> Alcotest.check value_testable "query unchanged" v (ok (Eval.query_value st q)))
    queries before

let test_storage_reload_replaces () =
  let st = storage_with default_rows in
  let q = parse_q "count(R)" in
  Alcotest.check value_testable "4 rows" (Value.int 4) (ok (Eval.query_value st q));
  ignore (ok (Storage.load st ~name:"R" [ row 7 7 [] [ ("cat", 1.0) ] ]));
  Alcotest.check value_testable "1 row after reload" (Value.int 1) (ok (Eval.query_value st q));
  Alcotest.check value_testable "naive agrees" (Value.int 1) (Naive.eval st q)

let test_storage_space_registered () =
  let st = storage_with default_rows in
  Alcotest.(check bool) "contrep space exists" true
    (Storage.space_find st "R#el/c" <> None);
  let sp = Option.get (Storage.space_find st "R#el/c") in
  Alcotest.(check int) "ndocs = rows" 4 (Mirror_ir.Space.ndocs sp)

let test_storage_insert_delete () =
  let st = storage_with default_rows in
  let count () =
    match ok (Eval.query_value st (parse_q "count(R)")) with
    | Value.Atom (Atom.Int n) -> n
    | _ -> Alcotest.fail "count"
  in
  Alcotest.(check int) "initial" 4 (count ());
  ignore (ok (Storage.insert st ~name:"R" [ row 9 9 [ 1 ] [ ("new", 1.0) ] ]));
  Alcotest.(check int) "after insert" 5 (count ());
  (* statistics follow the data: the new term is known to the space *)
  Alcotest.check value_testable "new term scores above default"
    (Value.bool true)
    (ok
       (Eval.query_value st
          (parse_q "exists(select[sum(getBL(THIS.c, {'new'})) > 0.4](R))")));
  let removed = ok (Storage.delete_where st ~name:"R" (fun r ->
      Atom.as_int (Value.as_atom (Value.field_exn r "a")) < 0)) in
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check int) "after delete" 4 (count ());
  (* both evaluators still agree after DML *)
  check_equivalence st "map[sum(getBL(THIS.c, {'cat', 'new'}))](R)"

let test_program_dml () =
  let m = Mirror.create () in
  let outcomes =
    ok
      (Mirror.exec_program m
         "define T as SET< TUPLE< Atomic<str>: k, Atomic<int>: n > >;\n\
          insert into T tuple(k: 'x', n: 1);\n\
          insert into T tuple(k: 'y', n: 2);\n\
          delete from T where THIS.n = 1;\n\
          map[THIS.k](T);")
  in
  match outcomes with
  | [ Mirror.Defined _; Mirror.Inserted _; Mirror.Inserted _; Mirror.Deleted (_, 1); Mirror.Evaluated v ] ->
    Alcotest.check value_testable "survivor" (Value.VSet [ Value.str "y" ]) v
  | _ -> Alcotest.fail "unexpected outcomes"

let test_dml_errors () =
  let m = Mirror.create () in
  ignore (ok (Mirror.exec_program m "define T as SET< Atomic<int> >;"));
  (match Mirror.exec_program m "insert into T 'wrong type';" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "type error not caught");
  match Mirror.exec_program m "insert into Missing 1;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown extent not caught"

(* {1 Equivalence of the two evaluators} *)

let test_battery_equivalence () =
  let st = storage_with default_rows in
  List.iter (check_equivalence st) battery

let test_battery_equivalence_empty () =
  let st = storage_with [] in
  List.iter (check_equivalence st) battery

let test_battery_equivalence_single () =
  let st = storage_with [ row 0 0 [ 5 ] [ ("stripe", 4.0) ] ] in
  List.iter (check_equivalence st) battery

let test_pp_parse_round_trip () =
  (* pretty-printed expressions re-parse to the same AST *)
  List.iter
    (fun src ->
      let e = parse_q src in
      let printed = Expr.to_string e in
      match Parser.parse_expr printed with
      | Ok back ->
        if back <> e then
          Alcotest.failf "round trip changed %s:\n  printed %s\n  reparsed %s" src printed
            (Expr.to_string back)
      | Error err -> Alcotest.failf "printed form of %s does not parse (%s): %s" src err printed)
    battery

let test_pp_parse_named_join () =
  let e =
    Expr.Join
      {
        v1 = "a";
        v2 = "b";
        pred =
          Expr.Binop
            (Bat.CmpOp Bat.Eq, Expr.Field (Expr.Var "a", "a"), Expr.Field (Expr.Var "b", "b"));
        left = Expr.Extent "R";
        right = Expr.Extent "R";
        l1 = "l";
        l2 = "r";
      }
  in
  match Parser.parse_expr (Expr.to_string e) with
  | Ok back -> Alcotest.(check bool) "identical AST" true (back = e)
  | Error err -> Alcotest.fail err

(* Random-data equivalence property. *)
let gen_rows =
  let open QCheck.Gen in
  let term = oneofl [ "cat"; "dog"; "stripe"; "sky" ] in
  let bag = list_size (int_range 0 3) (pair term (map Float.of_int (int_range 1 3))) in
  let row_gen =
    map
      (fun (a, b, s, c) ->
        (* contrep merges duplicate terms itself *)
        row a b s c)
      (quad (int_range (-3) 3) (int_range 0 3) (list_size (int_range 0 4) (int_range 0 5)) bag)
  in
  list_size (int_range 0 7) row_gen

(* Random well-typed expressions over R, generated directly against the
   fixture schema.  The generator tracks the binders in scope so it can
   produce correlated uses; depth is kept small to stay fast. *)
module Gen_expr = struct
  open QCheck.Gen

  (* environment: binders in scope, each either a row of R or an int *)
  let rows env = List.filter_map (fun (v, k) -> if k = `Row then Some v else None) env
  let ints env = List.filter_map (fun (v, k) -> if k = `Int then Some v else None) env
  let fresh env = Printf.sprintf "g%d" (List.length env)

  let leaf_int env =
    let choices =
      (Expr.lit_int 0 :: List.map (fun v -> Expr.Var v) (ints env))
      @ List.concat_map
          (fun v -> [ Expr.Field (Expr.Var v, "a"); Expr.Field (Expr.Var v, "b") ])
          (rows env)
    in
    let* base = oneofl choices in
    if base = Expr.lit_int 0 then map Expr.lit_int (int_range (-3) 3) else return base

  let rec atomic_int env depth =
    if depth = 0 then leaf_int env
    else
      frequency
        [
          (3, leaf_int env);
          ( 2,
            let* op = oneofl [ Bat.Add; Bat.Sub; Bat.Mul ] in
            let* a = atomic_int env (depth - 1) in
            let* b = atomic_int env (depth - 1) in
            return (Expr.Binop (op, a, b)) );
          ( 2,
            let* s = set_int env (depth - 1) in
            let* a = oneofl [ Bat.Sum; Bat.Count; Bat.Max; Bat.Min ] in
            return (Expr.Aggr (a, s)) );
        ]

  and pred env depth =
    frequency
      [
        ( 3,
          let* cmp = oneofl [ Bat.Eq; Bat.Ne; Bat.Lt; Bat.Ge ] in
          let* a = atomic_int env depth in
          let* b = atomic_int env depth in
          return (Expr.Binop (Bat.CmpOp cmp, a, b)) );
        ( 1,
          let* s = set_int env (max 0 (depth - 1)) in
          return (Expr.Exists s) );
        ( 1,
          let* x = atomic_int env depth in
          let* s = set_int env (max 0 (depth - 1)) in
          return (Expr.Member (x, s)) );
      ]

  and set_rows env depth =
    if depth = 0 then return (Expr.Extent "R")
    else
      frequency
        [
          (2, return (Expr.Extent "R"));
          ( 2,
            let v = fresh env in
            let* p = pred ((v, `Row) :: env) (depth - 1) in
            let* src = set_rows env (depth - 1) in
            return (Expr.Select { v; pred = p; src }) );
        ]

  and set_int env depth =
    let row_fields =
      List.map (fun v -> return (Expr.Field (Expr.Var v, "s"))) (rows env)
    in
    let base =
      ( 2,
        let v = fresh env in
        let* body = atomic_int ((v, `Row) :: env) (max 0 (depth - 1)) in
        let* src = set_rows env (max 0 (depth - 1)) in
        return (Expr.Map { v; body; src }) )
    in
    if depth = 0 then
      match row_fields with
      | [] -> snd base
      | _ -> oneof row_fields
    else
      frequency
        ([
           base;
           ( 1,
             let v = fresh env in
             let* p = pred ((v, `Int) :: env) (depth - 1) in
             let* src = set_int env (depth - 1) in
             return (Expr.Select { v; pred = p; src }) );
           ( 1,
             let* a = set_int env (depth - 1) in
             let* b = set_int env (depth - 1) in
             oneofl [ Expr.Union (a, b); Expr.Diff (a, b); Expr.Inter (a, b) ] );
         ]
        @ List.map (fun g -> (2, g)) row_fields)

  (* top-level query: a set of ints or a single atomic *)
  let top =
    frequency
      [
        (3, set_int [] 2);
        ( 1,
          let* body = atomic_int [] 2 in
          return body );
      ]
end

let prop_random_exprs =
  QCheck.Test.make ~name:"random well-typed expressions: naive = flattened" ~count:200
    (QCheck.make ~print:Expr.to_string Gen_expr.top)
    (fun expr ->
      let st = storage_with default_rows in
      match Typecheck.infer (tc_env st) expr with
      | Error e ->
        QCheck.Test.fail_reportf "generator produced ill-typed expr: %s"
          (Typecheck.diag_to_string e)
      | Ok _ -> (
        let naive = Naive.eval st expr in
        match Eval.query_value st expr with
        | Ok flat -> Value.equal naive flat
        | Error e -> QCheck.Test.fail_reportf "flattened failed: %s" e))

let prop_equivalence =
  QCheck.Test.make ~name:"flattened execution = naive semantics (random data)" ~count:25
    (QCheck.make gen_rows) (fun rows ->
      let st = storage_with rows in
      List.for_all
        (fun src ->
          let expr = parse_q src in
          let naive = Naive.eval st expr in
          match Eval.query_value st expr with
          | Ok flat -> Value.equal naive flat
          | Error e -> QCheck.Test.fail_reportf "%s: %s" src e)
        battery)

(* {1 Equality semijoins and joins}

   A top-level semijoin whose predicate is one equality between
   same-typed keys compiles to a hash semijoin on the key columns;
   every other semijoin (extra conjuncts, nested contexts, mixed key
   types, [~specialize:false]) keeps the pair path.  Both must match
   [Naive] bit for bit, flt payloads included. *)

let keyed_type =
  Types.Set
    (Types.Tuple
       [
         ("k", Types.Atomic Atom.TInt);
         ("f", Types.Atomic Atom.TFlt);
         ("s", Types.Atomic Atom.TStr);
         ("t", Types.Atomic Atom.TBool);
       ])

let keyed k f s t =
  Value.Tup
    [
      ("k", Value.int k);
      ("f", Value.Atom (Atom.Flt f));
      ("s", Value.Atom (Atom.Str s));
      ("t", Value.Atom (Atom.Bool t));
    ]

(* R (the default rows) plus A and B, whose int, str and bool keys
   repeat and whose flt keys include nan, 0.0 and -0.0, and the empty E *)
let keyed_storage () =
  let st = storage_with default_rows in
  let define name rows =
    ok (Storage.define st ~name keyed_type);
    ignore (ok (Storage.load st ~name rows))
  in
  define "A"
    [
      keyed 1 1.0 "a" true;
      keyed 2 2.0 "b" false;
      keyed 2 Float.nan "b" true;
      keyed 3 (-0.0) "c" false;
      keyed 4 0.0 "a" true;
      keyed 5 2.5 "d" false;
    ];
  define "B"
    [
      keyed 2 2.0 "b" true;
      keyed 2 Float.nan "x" true;
      keyed 3 0.0 "c" true;
      keyed 0 (-0.0) "a" true;
      keyed 7 3.5 "b" true;
    ];
  define "E" [];
  st

(* A value rendered with every flt as its bit pattern and every set
   sorted, so -0.0 vs 0.0 and nan payloads count as differences. *)
let rec value_bits = function
  | Value.Atom (Atom.Flt f) -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)
  | Value.Atom a -> Atom.to_string a
  | Value.Tup fields ->
    "<" ^ String.concat "," (List.map (fun (l, v) -> l ^ ":" ^ value_bits v) fields) ^ ">"
  | Value.VSet items -> "{" ^ String.concat "," (List.sort compare (List.map value_bits items)) ^ "}"
  | Value.Xv { ext; items; _ } -> ext ^ "[" ^ String.concat "," (List.map value_bits items) ^ "]"

let rec has_unique_head plan =
  match plan with
  | Mirror_bat.Mil.UniqueHead _ -> true
  | p -> List.exists has_unique_head (Mirror_bat.Mil.children p)

(* Does the compiled plan materialise pairs (the [UniqueHead] over
   surviving pairs), or probe key columns only? *)
let uses_pairs ?specialize st expr =
  let found = ref false in
  Mirror_core.Shape.iter
    (fun p -> if has_unique_head p then found := true)
    (Flatten.compile ?specialize st expr);
  !found

let check_bitwise st src =
  let expr = parse_q src in
  let expected = value_bits (Naive.eval st expr) in
  List.iter
    (fun (label, run) ->
      match run expr with
      | Error e -> Alcotest.failf "%s [%s]: %s" src label e
      | Ok (r : Eval.report) ->
        Alcotest.(check string) (Printf.sprintf "%s [%s]" src label) expected (value_bits r.Eval.value))
    [
      ("default", fun e -> Eval.query st e);
      ("no-optimize", fun e -> Eval.query ~optimize:false st e);
      ("no-specialize", fun e -> Eval.query ~specialize:false st e);
      ("checked", fun e -> Eval.query ~check:true st e);
    ]

let hash_semijoins =
  [
    "semijoin[THIS1.k = THIS2.k](A, B)";
    "semijoin[THIS1.k = THIS2.k](A, A)";
    "semijoin[THIS1.k = THIS2.k + 1](A, B)";
    "semijoin[THIS1.k * 2 = THIS2.k](A, B)";
    "semijoin[THIS2.k = THIS1.k - 1](A, B)";
    "semijoin[THIS2.k + 3 = THIS1.k](A, B)";
    "count(semijoin[THIS1.k = THIS2.k + 1](A, A))";
    "semijoin[THIS1.s = THIS2.s](A, B)";
    "semijoin[THIS1.t = THIS2.t](A, B)";
    "semijoin[THIS1.t = (not THIS2.t)](B, A)";
    "semijoin[THIS1.f = THIS2.f](A, B)";
    "semijoin[THIS1.f = THIS2.f](B, A)";
    "semijoin[THIS1.f = THIS2.f * -1.0](A, B)";
    "semijoin[THIS1.f * 0.0 = THIS2.f](A, B)";
    "map[THIS.s](semijoin[THIS1.k = THIS2.k](A, B))";
    "semijoin[THIS1.k = THIS2.k](A, E)";
    "semijoin[THIS1.k = THIS2.k](E, A)";
    "semijoin[THIS1.k = THIS2.k](E, E)";
    "semijoin[THIS1.a = THIS2.a + 1](R, R)";
    (* set-literal operands, on either side *)
    "semijoin[THIS1 = THIS2 + 1]({1, 2, 3}, {2, 3})";
    "semijoin[THIS1 = THIS2]({'a', 'b'}, {'b'})";
    "semijoin[THIS1 = THIS2.k](select[THIS > 1]({1, 2, 3}), A)";
    "semijoin[THIS1.k = THIS2](A, {2, 5, 2})";
    "semijoin[THIS1 = THIS2.f]({0.0, 1.0, 4.0}, B)";
    "count(semijoin[THIS1 = THIS2]({1, 1, 2}, {1}))";
  ]

let pair_semijoins =
  [
    (* extra conjuncts *)
    "semijoin[THIS1.k = THIS2.k and THIS1.f < THIS2.f](A, B)";
    "semijoin[THIS1.k = THIS2.k and THIS1.s = 'b'](A, B)";
    "semijoin[THIS1.a = THIS2.a and THIS1.b < THIS2.b](R, R)";
    (* nested contexts *)
    "map[count(semijoin[THIS1 = THIS2 + 1](THIS.s, THIS.s))](R)";
    "map[x: count(semijoin[y, z: y = z.a](x.s, R))](R)";
    (* mixed int/flt keys *)
    "semijoin[THIS1.k = THIS2.f](A, B)";
    "semijoin[THIS1.f = THIS2.k](A, B)";
    "count(semijoin[THIS1 = THIS2]({1, 2, 3}, {2.0, 3.5}))";
    (* no equality at all *)
    "semijoin[THIS1.k < THIS2.k](A, B)";
  ]

let test_hash_semijoin_matches_naive () =
  let st = keyed_storage () in
  List.iter
    (fun src ->
      check_bitwise st src;
      let e = parse_q src in
      Alcotest.(check bool) (src ^ ": no pairs") false (uses_pairs st e);
      Alcotest.(check bool) (src ^ ": pairs without specialize") true
        (uses_pairs ~specialize:false st e))
    hash_semijoins

let test_pair_semijoin_fallback () =
  let st = keyed_storage () in
  List.iter
    (fun src ->
      check_bitwise st src;
      Alcotest.(check bool) (src ^ ": pair path") true (uses_pairs st (parse_q src)))
    pair_semijoins

(* Equi-joins hash only same-typed keys; int = flt keys take the cross
   product, where the comparison promotes numerically. *)
let test_equi_join_key_types () =
  let st = keyed_storage () in
  List.iter (check_bitwise st)
    [
      "count(join[THIS1.k = THIS2.f](A, B))";
      "join[THIS1.f = THIS2.k](A, B)";
      "join[THIS1.k = THIS2.k](A, B)";
      "join[THIS1.f = THIS2.f](A, B)";
      "join[THIS1.s = THIS2.s and THIS1.k = THIS2.f](A, B)";
      "count(join[THIS1 = THIS2 + 1]({1, 2, 3}, {2, 3}))";
      "map[count(join[THIS1 = THIS2 + 0.0](THIS.s, THIS.s))](R)";
    ];
  Alcotest.(check (result string string))
    "int = flt join count" (Ok "2")
    (Result.map
       (fun r -> Value.to_string r.Eval.value)
       (Eval.query st (parse_q "count(join[THIS1.k = THIS2.f](A, B))")))

(* {1 Eval reports and explain} *)

let test_eval_report () =
  let st = storage_with default_rows in
  let report = ok (Eval.query st (parse_q "map[sum(getBL(THIS.c, {'cat'}))](R)")) in
  Alcotest.(check bool) "evaluated some operators" true (report.Eval.evaluated > 0);
  Alcotest.(check bool) "plan has bats" true (report.Eval.plan_bats >= 2);
  Alcotest.(check string) "type" "SET< Atomic<flt> >" (Types.to_string report.Eval.result_type)

let test_eval_cse_effect () =
  let st = storage_with default_rows in
  (* same getBL twice: CSE should reduce evaluated operator count *)
  let e = parse_q "map[sum(getBL(THIS.c, {'cat'})) + sum(getBL(THIS.c, {'cat'}))](R)" in
  let with_cse = ok (Eval.query ~cse:true ~optimize:false st e) in
  let without = ok (Eval.query ~cse:false ~optimize:false st e) in
  Alcotest.(check bool) "cse evaluates fewer operators" true
    (with_cse.Eval.evaluated < without.Eval.evaluated);
  Alcotest.check value_testable "same result" with_cse.Eval.value without.Eval.value

let test_eval_explain () =
  let st = storage_with default_rows in
  let plan = ok (Eval.explain st (parse_q "select[THIS.a > 0](R)")) in
  Alcotest.(check bool) "mentions semijoin" true
    (Mirror_util.Stringx.split_on (fun c -> c = '\n') plan
    |> List.exists (fun l ->
           String.starts_with ~prefix:"semijoin" (String.trim l)))

let test_eval_type_error_reported () =
  let st = storage_with default_rows in
  match Eval.query st (parse_q "sum(R)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected type error"

(* {1 Extension registry} *)

let test_extension_registry () =
  Alcotest.(check (list string)) "registered" [ "CONTREP"; "LIST" ] (Extension.registered ());
  Alcotest.(check bool) "find op" true (Extension.find_op "getBL" <> None);
  Alcotest.(check bool) "find structure" true (Extension.find "LIST" <> None);
  Alcotest.(check bool) "unknown" true (Extension.find "NOPE" = None)

(* {1 The Mirror facade (§5 demo)} *)

let demo_mirror () =
  let g = Prng.create 2025 in
  let scenes = Synth.corpus g ~n:10 ~width:32 ~height:32 ~annotated_fraction:0.8 () in
  let m = Mirror.create () in
  let report = ok (Mirror.build_image_library m ~scenes ()) in
  (m, scenes, report)

let test_mirror_program () =
  let m = Mirror.create () in
  let outcomes =
    ok
      (Mirror.exec_program m
         "define Lib as SET< TUPLE< Atomic<str>: name, Atomic<int>: n > >;")
  in
  Alcotest.(check int) "one outcome" 1 (List.length outcomes);
  ignore
    (ok
       (Mirror.load m ~name:"Lib"
          [
            Value.Tup [ ("name", Value.str "x"); ("n", Value.int 1) ];
            Value.Tup [ ("name", Value.str "y"); ("n", Value.int 2) ];
          ]));
  let v = ok (Mirror.run_query m "sum(map[THIS.n](Lib))") in
  Alcotest.check value_testable "sum" (Value.int 3) v

let test_mirror_demo_pipeline () =
  let m, scenes, report = demo_mirror () in
  Alcotest.(check int) "no dead letters" 0 (List.length report.Mirror_daemon.Orchestrator.dead_letters);
  Alcotest.(check int) "library loaded" (Array.length scenes) (Mirror.library_size m);
  (* the paper's two extents exist and are queryable *)
  let v = ok (Mirror.run_query m "count(ImageLibraryInternal)") in
  Alcotest.check value_testable "internal rows" (Value.int (Array.length scenes)) v;
  let v = ok (Mirror.run_query m "count(ImageLibrary)") in
  Alcotest.check value_testable "raw rows" (Value.int (Array.length scenes)) v

let test_mirror_paper_query_runs () =
  let m, _, _ = demo_mirror () in
  let bindings = [ ("query", Expr.lit_str_set [ "stripe" ]) ] in
  let v =
    ok
      (Mirror.run_query m ~bindings
         "map[sum(THIS)]( map[getBL(THIS.annotation, query, stats)]( ImageLibraryInternal ))")
  in
  match v with
  | Value.VSet scores ->
    Alcotest.(check int) "one score per image" (Mirror.library_size m) (List.length scores);
    List.iter
      (fun s ->
        let f = Atom.as_float (Value.as_atom s) in
        Alcotest.(check bool) "score in [0,1)" true (f >= 0.0 && f < 1.0))
      scores
  | _ -> Alcotest.fail "expected a set of scores"

let test_mirror_search_finds_relevant () =
  let m, scenes, _ = demo_mirror () in
  (* query for a class that certainly exists in some annotated image *)
  let target =
    Array.to_list scenes
    |> List.find_map (fun (s : Synth.scene) ->
           match s.Synth.caption with
           | Some _ -> Some (Synth.class_name (List.hd s.Synth.truth).Synth.cls)
           | None -> None)
  in
  let query = Option.get target in
  let hits = ok (Mirror.search m ~limit:5 ~mode:Mirror.Text_only query) in
  Alcotest.(check bool) "got hits" true (hits <> []);
  (* scores descending *)
  let scores = List.map snd hits in
  let rec desc = function a :: (b :: _ as r) -> a >= b && desc r | _ -> true in
  Alcotest.(check bool) "descending" true (desc scores)

(* The compiled top-k ranking: the query literal reaches the belief
   operator (contrep_getbl's summed form) as one operand (no join
   replicates it per context), and take's cut is a group_rank limited
   to k that emits at most k rows. *)
let test_ranking_plan_shape () =
  let module Mil = Mirror_bat.Mil in
  let m, _, _ = demo_mirror () in
  let st = Mirror.storage m in
  let expr = Mirror.ranking_query ~limit:3 ~field:"annotation" [ "stripe"; "sky" ] in
  let _, shape = ok (Eval.compile st expr) in
  let plans = Mirror_core.Shape.plans shape in
  let rec nodes p = p :: List.concat_map nodes (Mil.children p) in
  let all = List.concat_map nodes plans in
  let getbls =
    List.filter
      (function
        | Mil.Foreign { name = "contrep_getbl" | "contrep_getbl_sum"; _ } -> true | _ -> false)
      all
  in
  Alcotest.(check bool) "a belief operator in the plan" true (getbls <> []);
  List.iter
    (fun g ->
      List.iter
        (function
          | Mil.Join (Mil.Lit _, _) | Mil.Join (_, Mil.Lit _) ->
            Alcotest.fail "a join fed by a literal under contrep_getbl"
          | _ -> ())
        (nodes g))
    getbls;
  let ranks =
    List.filter_map
      (function Mil.GroupRank { limit; _ } as p -> Some (p, limit) | _ -> None)
      all
  in
  Alcotest.(check bool) "a group_rank" true (ranks <> []);
  let session =
    Mil.session ~foreign:(Extension.foreign_dispatch (Storage.eval_env st)) (Storage.catalog st)
  in
  List.iter
    (fun (p, limit) ->
      Alcotest.(check (option int)) "limited to k" (Some 3) limit;
      Alcotest.(check bool) "at most k rows" true (Bat.count (Mil.exec session p) <= 3))
    ranks;
  let hits = ok (Mirror.rank_by_terms m ~limit:3 ~field:"annotation" [ "stripe"; "sky" ]) in
  Alcotest.(check int) "k hits" 3 (List.length hits)

(* {2 Summed ranking plans}

   sum(getBL(x, {literal})) compiles to contrep_getbl's summed form:
   one belief-sum per context, with no group_sum or outer join above
   the belief operator, in every ranking class of the search mix and
   the bench shapes — and the same values, bit for bit, as the
   composed plan ~specialize:false still builds. *)

let docs_store () =
  let m = Mirror.create () in
  ignore
    (ok
       (Mirror.exec_program m
          "define Docs as SET< TUPLE< Atomic<URL>: source, Atomic<int>: year, CONTREP<Text>: \
           annotation > >;"));
  let g = Prng.create 11 in
  let words = [| "w0"; "w1"; "w2"; "w3"; "w4"; "w5"; "w6"; "w7" |] in
  ignore
    (ok
       (Mirror.load m ~name:"Docs"
          (List.init 40 (fun i ->
               Value.Tup
                 [
                   ("source", Value.str (Printf.sprintf "img://%d" i));
                   ("year", Value.int (1990 + Prng.int g 4));
                   ( "annotation",
                     Value.contrep
                       (Mirror_ir.Tokenize.bag_of_words
                          (List.init (1 + Prng.int g 8) (fun _ -> Prng.choose g words))) );
                 ]))));
  m

let rec float_bits = function
  | Value.Atom (Atom.Flt f) -> Value.Atom (Atom.Int (Int64.to_int (Int64.bits_of_float f)))
  | Value.Atom _ as v -> v
  | Value.Tup fields -> Value.Tup (List.map (fun (l, v) -> (l, float_bits v)) fields)
  | Value.VSet vs -> Value.VSet (List.map float_bits vs)
  | Value.Xv x -> Value.Xv { x with items = List.map float_bits x.items }

let check_summed_plan st what expr =
  let module Mil = Mirror_bat.Mil in
  let _, shape = ok (Eval.compile st expr) in
  let rec nodes p = p :: List.concat_map nodes (Mil.children p) in
  let all = List.concat_map nodes (Mirror_core.Shape.plans shape) in
  let belief = function
    | Mil.Foreign { name = "contrep_getbl" | "contrep_getbl_sum"; _ } -> true
    | _ -> false
  in
  Alcotest.(check bool) (what ^ ": the summed form") true
    (List.exists
       (function Mil.Foreign { name = "contrep_getbl_sum"; _ } -> true | _ -> false)
       all);
  List.iter
    (function
      | (Mil.GroupAggr _ | Mil.LeftOuterJoin _) as p when List.exists belief (nodes p) ->
        Alcotest.failf "%s: %s above a belief operator" what (Mil.op_name p)
      | _ -> ())
    all;
  let fused = ok (Eval.query st expr) and composed = ok (Eval.query ~specialize:false st expr) in
  Alcotest.(check string) (what ^ ": bitwise the composed plan")
    (Value.to_string (float_bits composed.Eval.value))
    (Value.to_string (float_bits fused.Eval.value))

let test_summed_ranking_plans () =
  let m, _, _ = demo_mirror () in
  check_summed_plan (Mirror.storage m) "ranking_query"
    (Mirror.ranking_query ~limit:3 ~field:"annotation" [ "stripe"; "sky" ]);
  let st = Mirror.storage (docs_store ()) in
  let rank = "sum(getBL(THIS.annotation, {'w1', 'w3', 'w1', 'zz'}, stats))" in
  List.iter
    (fun (what, src) -> check_summed_plan st what (ok (Parser.parse_expr src)))
    [
      ("rank-all", Printf.sprintf "map[%s](Docs)" rank);
      ( "top-k",
        Printf.sprintf
          "take(tolist_desc(map[tuple(source: THIS.source, score: %s)](Docs), 'score'), 5)" rank
      );
      ( "select+rank",
        Printf.sprintf "map[tuple(s: THIS.source, score: %s)](select[THIS.year = 1991](Docs))"
          rank );
      ("Q1", "map[sum(THIS)](map[getBL(THIS.annotation, {'w2', 'w5'}, stats)](Docs))");
      ("CSE", Printf.sprintf "map[%s + %s](Docs)" rank rank);
    ]

(* {2 The reifier}

   Eval's reifier before it looked its indexes up once per shape node
   and read dense heads by position, verbatim, as the oracle. *)
module Old_reify = struct
  module Mil = Mirror_bat.Mil
  module Shape = Mirror_core.Shape

  type reifier = {
    lookup : Mil.t -> Bat.t;
    atom_idx : (int, Atom.t) Hashtbl.t Mil.Tbl.t;
    link_idx : (int, int list) Hashtbl.t Mil.Tbl.t;
  }

  let make_reifier lookup =
    { lookup; atom_idx = Mil.Tbl.create 16; link_idx = Mil.Tbl.create 16 }

  let atom_index r plan =
    match Mil.Tbl.find_opt r.atom_idx plan with
    | Some idx -> idx
    | None ->
      let bat = r.lookup plan in
      let idx = Hashtbl.create (Bat.count bat) in
      let heads = Mirror_bat.Column.oid_exn (Bat.head bat) in
      Array.iteri
        (fun i key -> if not (Hashtbl.mem idx key) then Hashtbl.add idx key (Bat.tail_at bat i))
        heads;
      Mil.Tbl.add r.atom_idx plan idx;
      idx

  let link_index r plan =
    match Mil.Tbl.find_opt r.link_idx plan with
    | Some idx -> idx
    | None ->
      let bat = r.lookup plan in
      let idx = Hashtbl.create (Bat.count bat) in
      let heads = Mirror_bat.Column.oid_exn (Bat.head bat) in
      let tails = Mirror_bat.Column.oid_exn (Bat.tail bat) in
      for i = Array.length heads - 1 downto 0 do
        let key = tails.(i) in
        Hashtbl.replace idx key
          (heads.(i) :: Option.value ~default:[] (Hashtbl.find_opt idx key))
      done;
      Mil.Tbl.add r.link_idx plan idx;
      idx

  let atom r plan =
    let idx = atom_index r plan in
    fun ctx ->
      match Hashtbl.find_opt idx ctx with
      | Some a -> a
      | None -> failwith (Printf.sprintf "reify: no value for context @%d" ctx)

  let members r link ctx = Option.value ~default:[] (Hashtbl.find_opt (link_index r link) ctx)

  let rec reify_at r shape ctx =
    match shape with
    | Shape.Atomic plan -> Value.Atom (atom r plan ctx)
    | Shape.Tuple fields ->
      Value.Tup (List.map (fun (l, s) -> (l, reify_at r s ctx)) fields)
    | Shape.Set { link; elem } ->
      Value.VSet (List.map (fun e -> reify_at r elem e) (members r link ctx))
    | Shape.Xstruct { ext; meta; bats; subs } ->
      let (module E : Extension.S) = Extension.find_exn ext in
      E.reify ~members:(members r) ~atom:(atom r) ~recurse:(reify_at r) ~meta ~bats ~subs ~ctx

  let reify ~lookup shape = reify_at (make_reifier lookup) shape 0
end

let test_reify_matches_old_reifier () =
  let corpus_st = Mirror_core.Corpus.storage () in
  let docs_st = Mirror.storage (docs_store ()) in
  let check st src =
    let _, shape = ok (Eval.compile st (ok (Parser.parse_expr src))) in
    let session () =
      Mirror_bat.Mil.session ~foreign:(Extension.foreign_dispatch (Storage.eval_env st))
        (Storage.catalog st)
    in
    let old = Old_reify.reify ~lookup:(Mirror_bat.Mil.exec (session ())) shape in
    let fresh = Eval.reify ~lookup:(Mirror_bat.Mil.exec (session ())) shape in
    Alcotest.(check string) src
      (Value.to_string (float_bits old))
      (Value.to_string (float_bits fresh))
  in
  (* hand-built: repeated, unordered heads (the first row wins) and
     dense heads starting past 0 *)
  let module Mil = Mirror_bat.Mil in
  let lit hty tty pairs = Mil.Lit { hty; tty; pairs } in
  let link =
    lit Atom.TOid Atom.TOid (List.map (fun e -> (Atom.Oid e, Atom.Oid 0)) [ 12; 10; 11 ])
  in
  let repeated =
    lit Atom.TOid Atom.TStr
      [
        (Atom.Oid 12, Atom.Str "b");
        (Atom.Oid 10, Atom.Str "a");
        (Atom.Oid 12, Atom.Str "c");
        (Atom.Oid 11, Atom.Str "d");
        (Atom.Oid 10, Atom.Str "e");
      ]
  in
  let dense =
    lit Atom.TOid Atom.TInt (List.map (fun e -> (Atom.Oid e, Atom.Int (e * e))) [ 10; 11; 12 ])
  in
  let shape =
    Mirror_core.Shape.(Set { link; elem = Tuple [ ("r", Atomic repeated); ("d", Atomic dense) ] })
  in
  let session () = Mil.session (Storage.catalog corpus_st) in
  Alcotest.(check string) "hand-built heads"
    (Value.to_string (Old_reify.reify ~lookup:(Mil.exec (session ())) shape))
    (Value.to_string (Eval.reify ~lookup:(Mil.exec (session ())) shape));
  Alcotest.(check int) "the corpus" 59 (List.length Mirror_core.Corpus.queries);
  List.iter (check corpus_st) Mirror_core.Corpus.queries;
  List.iter (check docs_st)
    [
      "map[sum(getBL(THIS.annotation, {'w1', 'w2'}, stats))](Docs)";
      "take(tolist_desc(map[tuple(source: THIS.source, score: sum(getBL(THIS.annotation, \
       {'w4'}, stats)))](Docs), 'score'), 7)";
      "map[tuple(s: THIS.source, y: THIS.year)](select[THIS.year > 1991](Docs))";
    ]

let test_mirror_thesaurus_lookup () =
  let m, _, _ = demo_mirror () in
  let concepts = Mirror.thesaurus_lookup m "stripes" in
  Alcotest.(check bool) "thesaurus produces concepts" true (concepts <> []);
  List.iter
    (fun (c, _) ->
      Alcotest.(check bool) ("concept is a visual word: " ^ c) true
        (Mirror_mm.Vocabmap.parse_term c <> None))
    concepts

let test_mirror_refined_search () =
  let m, scenes, _ = demo_mirror () in
  let query = "stripes" in
  let relevant url =
    match String.rindex_opt url '/' with
    | Some i ->
      Synth.relevant
        scenes.(int_of_string (String.sub url (i + 1) (String.length url - i - 1)))
        ~query_words:[ query ]
    | None -> false
  in
  let initial = ok (Mirror.search m ~limit:8 ~mode:Mirror.Dual query) in
  let judgements = List.map (fun (url, _) -> (url, relevant url)) initial in
  let refined = ok (Mirror.search_refined m ~limit:8 ~query ~judgements ()) in
  Alcotest.(check bool) "refined ranking non-empty" true (refined <> []);
  let p5 hits = Feedback.precision_at 5 ~ranked:(List.map fst hits) ~relevant in
  Alcotest.(check bool)
    (Printf.sprintf "refined not worse (%.2f -> %.2f)" (p5 initial) (p5 refined))
    true
    (p5 refined >= p5 initial -. 1e-9)

let test_mirror_modes_and_feedback () =
  let m, _, _ = demo_mirror () in
  let q = "stripes" in
  let dual = ok (Mirror.search m ~limit:5 ~mode:Mirror.Dual q) in
  let img = ok (Mirror.search m ~limit:5 ~mode:Mirror.Image_only q) in
  Alcotest.(check bool) "dual produced" true (dual <> []);
  Alcotest.(check bool) "image-only produced" true (img <> []);
  (* feedback adapts the thesaurus *)
  let before = Mirror.thesaurus_lookup m q in
  (match dual with
  | (url, _) :: _ -> Mirror.give_feedback m ~query:q ~judgements:[ (url, true) ]
  | [] -> ());
  let after = Mirror.thesaurus_lookup m q in
  Alcotest.(check bool) "lookup still works after feedback" true (after <> []);
  ignore before

(* {1 Misc module coverage} *)

module Shape = Mirror_core.Shape

let test_shape_helpers () =
  let s =
    Shape.Set
      {
        link = 1;
        elem =
          Shape.Tuple
            [ ("a", Shape.Atomic 2); ("x", Shape.Xstruct { ext = "E"; meta = []; bats = [ 3; 4 ]; subs = [ Shape.Atomic 5 ] }) ];
      }
  in
  Alcotest.(check int) "count_bats" 5 (Shape.count_bats s);
  let doubled = Shape.map (fun b -> b * 10) s in
  let sum = ref 0 in
  Shape.iter (fun b -> sum := !sum + b) doubled;
  Alcotest.(check int) "map + iter" 150 !sum

let test_expr_helpers () =
  let e = parse_q "map[THIS.a + THIS.b](select[THIS.a > 0](R))" in
  Alcotest.(check (list string)) "closed" [] (Expr.free_vars e);
  let open_e = Expr.Binop (Bat.Add, Expr.Var "x", Expr.Var "y") in
  Alcotest.(check (list string)) "free vars in order" [ "x"; "y" ] (Expr.free_vars open_e);
  Alcotest.(check bool) "size counts nodes" true (Expr.size e > 8);
  Alcotest.(check bool) "to_string mentions select" true
    (Mirror_util.Stringx.split_on (fun c -> c = '(') (Expr.to_string e)
    |> List.exists (fun s -> String.starts_with ~prefix:"select" s))

let test_value_compare_edges () =
  (* CONTREP compares as a bag: item order irrelevant *)
  let c1 = Value.contrep [ ("a", 1.0); ("b", 2.0) ] in
  let c2 = Value.contrep [ ("b", 2.0); ("a", 1.0) ] in
  Alcotest.(check bool) "bag order irrelevant" true (Value.equal c1 c2);
  (* but the bound space participates *)
  let c3 = Value.contrep ~space:"s" [ ("a", 1.0); ("b", 2.0) ] in
  Alcotest.(check bool) "meta distinguishes" false (Value.equal c1 c3);
  (* LIST compares in order *)
  Alcotest.(check bool) "list order matters" false
    (Value.equal (Value.vlist [ Value.int 1; Value.int 2 ]) (Value.vlist [ Value.int 2; Value.int 1 ]))

let test_list_take_beyond_length () =
  let st = storage_with default_rows in
  check_equivalence st "take(tolist(map[THIS.a](R), ''), 99)"

let test_query_duplicate_terms () =
  let st = storage_with default_rows in
  check_equivalence st "map[getBL(THIS.c, {'cat', 'cat'})](R)"

let test_tolist_missing_field_fails () =
  let st = storage_with default_rows in
  match Eval.query_value st (parse_q "tolist(map[tuple(a: THIS.a)](R), 'nope')") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing sort field accepted"

let test_search_without_library () =
  let m = Mirror.create () in
  match Mirror.search m "anything" with
  | Error _ -> ()
  | Ok hits -> Alcotest.(check (list (pair string (float 1.0)))) "empty" [] hits

(* {1 Persistence} *)

module Snapshot = Mirror_store.Snapshot

let with_temp_dir f =
  let dir = Filename.temp_file "mirror" ".db" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* Every extent's logical rows (the naive evaluator's view, rebuilt by
   the redo of each extent's [Replace] record) survive the round trip,
   in order. *)
let same_rows st st2 =
  List.for_all
    (fun name ->
      Option.equal (List.equal Value.equal) (Storage.extent_rows st name)
        (Storage.extent_rows st2 name))
    (Storage.extents st)

let check_rows st st2 =
  List.iter
    (fun name ->
      Alcotest.(check (option (list value_testable)))
        ("rows of " ^ name) (Storage.extent_rows st name) (Storage.extent_rows st2 name))
    (Storage.extents st)

let test_persist_round_trip () =
  with_temp_dir (fun dir ->
      let st = storage_with default_rows in
      ok (Snapshot.save st ~dir);
      let st2 = ok (Snapshot.load ~dir) in
      Alcotest.(check (list string)) "extents" (Storage.extents st) (Storage.extents st2);
      check_rows st st2;
      (* every battery query gives identical results on the loaded DB,
         through both evaluators *)
      List.iter
        (fun src ->
          let e = parse_q src in
          let original = ok (Eval.query_value st e) in
          Alcotest.check value_testable ("flattened after load: " ^ src) original
            (ok (Eval.query_value st2 e));
          Alcotest.check value_testable ("naive after load: " ^ src) original
            (Naive.eval st2 e))
        battery)

let test_persist_space_restored () =
  with_temp_dir (fun dir ->
      let st = storage_with default_rows in
      ok (Snapshot.save st ~dir);
      let st2 = ok (Snapshot.load ~dir) in
      let sp1 = Option.get (Storage.space_find st "R#el/c") in
      let sp2 = Option.get (Storage.space_find st2 "R#el/c") in
      Alcotest.(check int) "ndocs" (Mirror_ir.Space.ndocs sp1) (Mirror_ir.Space.ndocs sp2);
      Alcotest.(check (float 1e-9)) "avg doclen"
        (Mirror_ir.Space.avg_doc_len sp1)
        (Mirror_ir.Space.avg_doc_len sp2))

let test_persist_load_then_extend () =
  with_temp_dir (fun dir ->
      let st = storage_with default_rows in
      ok (Snapshot.save st ~dir);
      let st2 = ok (Snapshot.load ~dir) in
      (* defining and loading new extents after a load must not collide
         with restored oids *)
      ok (Storage.define st2 ~name:"S" (Types.Set (Types.Atomic Atom.TInt)));
      ignore (ok (Storage.load st2 ~name:"S" [ Value.int 7; Value.int 8 ]));
      Alcotest.check value_testable "new extent queryable" (Value.int 15)
        (ok (Eval.query_value st2 (parse_q "sum(S)")));
      Alcotest.check value_testable "old extent intact" (Value.int 4)
        (ok (Eval.query_value st2 (parse_q "count(R)"))))

let test_persist_demo_library () =
  with_temp_dir (fun dir ->
      let m, _, _ = demo_mirror () in
      let bindings = [ ("query", Expr.lit_str_set [ "stripe" ]) ] in
      let qsrc =
        "map[sum(THIS)]( map[getBL(THIS.annotation, query, stats)]( ImageLibraryInternal ))"
      in
      let before = ok (Mirror.run_query m ~bindings qsrc) in
      ok (Snapshot.save (Mirror.storage m) ~dir);
      let m2 = Mirror.of_storage (ok (Snapshot.load ~dir)) in
      check_rows (Mirror.storage m) (Mirror.storage m2);
      let after = ok (Mirror.run_query m2 ~bindings qsrc) in
      Alcotest.check value_testable "paper ranking survives persistence" before after;
      (* the image CONTREP space also came back *)
      let vafter =
        ok (Mirror.run_query m2 "count(flatten(map[terms(THIS.image)](ImageLibraryInternal)))")
      in
      let vbefore =
        ok (Mirror.run_query m "count(flatten(map[terms(THIS.image)](ImageLibraryInternal)))")
      in
      Alcotest.check value_testable "visual words intact" vbefore vafter)

let prop_persist_round_trip =
  QCheck.Test.make ~name:"persistence preserves queries (random data)" ~count:10
    (QCheck.make gen_rows) (fun rows ->
      with_temp_dir (fun dir ->
          let st = storage_with rows in
          (match Snapshot.save st ~dir with Ok () -> () | Error e -> failwith e);
          let st2 = match Snapshot.load ~dir with Ok s -> s | Error e -> failwith e in
          same_rows st st2
          && List.for_all
            (fun src ->
              let e = parse_q src in
              match (Eval.query_value st e, Eval.query_value st2 e) with
              | Ok a, Ok b -> Value.equal a b
              | _ -> false)
            [
              "map[sum(getBL(THIS.c, {'cat', 'dog'}))](R)";
              "count(flatten(map[terms(THIS.c)](R)))";
              "map[tuple(a: THIS.a, n: count(THIS.s))](R)";
            ]))

let test_persist_missing_dir () =
  match Snapshot.load ~dir:"/nonexistent-mirror-db" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing directory should fail"

(* {1 Scale sanity} *)

let test_scale_sanity () =
  (* a 2000-document ranking must stay comfortably interactive *)
  let g = Prng.create 123 in
  let rows =
    List.init 2000 (fun i ->
        let bag =
          List.init 10 (fun _ -> (Printf.sprintf "w%d" (Prng.int g 200), 1.0))
        in
        row i (i mod 7) [] bag)
  in
  let st = storage_with rows in
  let e = parse_q "map[sum(getBL(THIS.c, {'w5', 'w6'}))](R)" in
  let t0 = Sys.time () in
  (match ok (Eval.query_value st e) with
  | Value.VSet scores -> Alcotest.(check int) "all scored" 2000 (List.length scores)
  | _ -> Alcotest.fail "unexpected result");
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "interactive latency (%.3f s)" elapsed)
    true (elapsed < 5.0)

let test_explain_getblnet () =
  let st = storage_with default_rows in
  let plan = ok (Eval.explain st (parse_q "map[getBLnet(THIS.c, '#and( cat dog )')](R)")) in
  Alcotest.(check bool) "physical operator visible" true
    (Mirror_util.Stringx.split_on (fun c -> c = '\n') plan
    |> List.exists (fun l ->
           String.starts_with ~prefix:"foreign[contrep_getblnet" (String.trim l)))

(* {1 Feedback math} *)

let test_rocchio () =
  let out =
    Feedback.rocchio ~alpha:1.0 ~beta:1.0 ~gamma:1.0
      ~original:[ ("a", 1.0) ]
      ~relevant:[ [ ("b", 2.0) ]; [ ("b", 4.0) ] ]
      ~irrelevant:[ [ ("a", 2.0) ] ]
      ()
  in
  (* a: 1 - 2 = -1 (dropped); b: mean(2,4) = 3 *)
  Alcotest.(check (list (pair string (float 1e-9)))) "rocchio" [ ("b", 3.0) ] out

let test_rocchio_max_terms () =
  let rel = [ List.init 20 (fun i -> (Printf.sprintf "t%02d" i, Float.of_int (i + 1))) ] in
  let out = Feedback.rocchio ~max_terms:5 ~original:[] ~relevant:rel ~irrelevant:[] () in
  Alcotest.(check int) "truncated" 5 (List.length out);
  Alcotest.(check string) "heaviest first" "t19" (fst (List.hd out))

let test_precision_metrics () =
  let relevant d = d = "a" || d = "c" in
  Alcotest.(check (float 1e-9)) "p@2" 0.5 (Feedback.precision_at 2 ~ranked:[ "a"; "b"; "c" ] ~relevant);
  Alcotest.(check (float 1e-9)) "p@0" 0.0 (Feedback.precision_at 0 ~ranked:[ "a" ] ~relevant);
  let ap = Feedback.average_precision ~ranked:[ "a"; "b"; "c" ] ~relevant in
  Alcotest.(check (float 1e-9)) "ap" ((1.0 +. (2.0 /. 3.0)) /. 2.0) ap;
  Alcotest.(check (float 1e-9)) "ap none" 0.0
    (Feedback.average_precision ~ranked:[ "b" ] ~relevant)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mirror_core"
    [
      ( "types-values",
        [
          Alcotest.test_case "type pp/equal" `Quick test_types_pp_and_equal;
          Alcotest.test_case "well-labelled" `Quick test_types_well_labelled;
          Alcotest.test_case "set semantics" `Quick test_value_set_semantics;
          Alcotest.test_case "contrep helpers" `Quick test_value_contrep_helpers;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "battery typechecks" `Quick test_typecheck_battery;
          Alcotest.test_case "errors rejected" `Quick test_typecheck_errors;
          Alcotest.test_case "result types" `Quick test_typecheck_results;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper schema" `Quick test_parser_paper_schema;
          Alcotest.test_case "paper query" `Quick test_parser_paper_query;
          Alcotest.test_case "THIS nesting" `Quick test_parser_this_nesting;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "literals" `Quick test_parser_literals;
          Alcotest.test_case "let bindings" `Quick test_parser_let_bindings;
          Alcotest.test_case "pp/parse round-trip" `Quick test_pp_parse_round_trip;
          Alcotest.test_case "named join binders" `Quick test_pp_parse_named_join;
          Alcotest.test_case "type print/parse round-trip" `Quick test_parser_type_round_trip;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "map fusion" `Quick test_optimize_fusion;
          Alcotest.test_case "select fusion" `Quick test_optimize_select_fusion;
          Alcotest.test_case "constant folding" `Quick test_optimize_constant_folding;
          Alcotest.test_case "more rules" `Quick test_optimize_more_rules;
          Alcotest.test_case "semantics preserved" `Quick test_optimize_preserves_semantics;
          Alcotest.test_case "capture-avoiding subst" `Quick test_optimize_subst_capture;
        ] );
      ( "storage",
        [
          Alcotest.test_case "define validation" `Quick test_storage_define_errors;
          Alcotest.test_case "load type checks" `Quick test_storage_load_type_check;
          Alcotest.test_case "a failed load keeps the extent" `Quick
            test_storage_failed_load_keeps_extent;
          Alcotest.test_case "reload replaces" `Quick test_storage_reload_replaces;
          Alcotest.test_case "stats space registered" `Quick test_storage_space_registered;
          Alcotest.test_case "insert/delete" `Quick test_storage_insert_delete;
          Alcotest.test_case "DML statements" `Quick test_program_dml;
          Alcotest.test_case "DML errors" `Quick test_dml_errors;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "battery on default data" `Quick test_battery_equivalence;
          Alcotest.test_case "battery on empty extent" `Quick test_battery_equivalence_empty;
          Alcotest.test_case "battery on single row" `Quick test_battery_equivalence_single;
        ] );
      ( "equi-keys",
        [
          Alcotest.test_case "hash semijoin matches naive" `Quick test_hash_semijoin_matches_naive;
          Alcotest.test_case "pair-path fallback" `Quick test_pair_semijoin_fallback;
          Alcotest.test_case "equi-join key types" `Quick test_equi_join_key_types;
        ] );
      ( "eval",
        [
          Alcotest.test_case "report" `Quick test_eval_report;
          Alcotest.test_case "cse effect" `Quick test_eval_cse_effect;
          Alcotest.test_case "explain" `Quick test_eval_explain;
          Alcotest.test_case "type errors reported" `Quick test_eval_type_error_reported;
        ] );
      ("extensions", [ Alcotest.test_case "registry" `Quick test_extension_registry ]);
      ( "mirror",
        [
          Alcotest.test_case "program execution" `Quick test_mirror_program;
          Alcotest.test_case "demo pipeline" `Quick test_mirror_demo_pipeline;
          Alcotest.test_case "paper query runs" `Quick test_mirror_paper_query_runs;
          Alcotest.test_case "search finds hits" `Quick test_mirror_search_finds_relevant;
          Alcotest.test_case "top-k ranking plan shape" `Quick test_ranking_plan_shape;
          Alcotest.test_case "summed ranking plans" `Quick test_summed_ranking_plans;
          Alcotest.test_case "reify matches the old reifier" `Quick test_reify_matches_old_reifier;
          Alcotest.test_case "thesaurus lookup" `Quick test_mirror_thesaurus_lookup;
          Alcotest.test_case "modes and feedback" `Quick test_mirror_modes_and_feedback;
          Alcotest.test_case "rocchio-refined search" `Quick test_mirror_refined_search;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "shape helpers" `Quick test_shape_helpers;
          Alcotest.test_case "expr helpers" `Quick test_expr_helpers;
          Alcotest.test_case "value compare edges" `Quick test_value_compare_edges;
          Alcotest.test_case "take beyond length" `Quick test_list_take_beyond_length;
          Alcotest.test_case "duplicate query terms" `Quick test_query_duplicate_terms;
          Alcotest.test_case "tolist missing field" `Quick test_tolist_missing_field_fails;
          Alcotest.test_case "search without library" `Quick test_search_without_library;
        ] );
      ( "persist",
        [
          Alcotest.test_case "round trip preserves every query" `Quick test_persist_round_trip;
          Alcotest.test_case "statistics space restored" `Quick test_persist_space_restored;
          Alcotest.test_case "extend after load" `Quick test_persist_load_then_extend;
          Alcotest.test_case "demo library round trip" `Quick test_persist_demo_library;
          Alcotest.test_case "missing directory" `Quick test_persist_missing_dir;
        ] );
      ( "scale",
        [
          Alcotest.test_case "2000-doc ranking latency" `Quick test_scale_sanity;
          Alcotest.test_case "explain shows getblnet" `Quick test_explain_getblnet;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "rocchio" `Quick test_rocchio;
          Alcotest.test_case "rocchio truncation" `Quick test_rocchio_max_terms;
          Alcotest.test_case "precision metrics" `Quick test_precision_metrics;
        ] );
      ("properties", qc [ prop_equivalence; prop_random_exprs; prop_persist_round_trip ]);
    ]
