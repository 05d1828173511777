(* Tests for the MIL static analyzer (Milprop/Milcheck/Plancheck):
   per-constructor verification, envelope soundness against the real
   executor, the differential checker across both optimiser stages,
   Milopt fixpoint stability, and the Mil.Unbound satellite. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil
module Milopt = Mirror_bat.Milopt
module Milprop = Mirror_bat.Milprop
module Milcheck = Mirror_bat.Milcheck
module Shape = Mirror_core.Shape
module Storage = Mirror_core.Storage
module Flatten = Mirror_core.Flatten
module Optimize = Mirror_core.Optimize
module Eval = Mirror_core.Eval
module Parser = Mirror_core.Parser
module Plancheck = Mirror_core.Plancheck
module Moacheck = Mirror_core.Moacheck
module Trace = Mirror_util.Trace
module Corpus = Mirror_core.Corpus
module Bootstrap = Mirror_core.Bootstrap
module Value = Mirror_core.Value

let () = Bootstrap.ensure ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let parse_q src = ok (Parser.parse_expr src)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* {1 Kernel-level fixtures} *)

(* ints:  @0->10 @1->20 @2->30 @3->20   (dense head, int tails)
   strs:  @0->"a" @1->"b" @2->"a"
   bools: @0->true @1->false @2->true
   links: @0->@1 @1->@2 @2->@0          (oid tails, a permutation) *)
let fixture_catalog () =
  let cat = Catalog.create () in
  let put name hty tty pairs = Catalog.put cat name (Bat.of_pairs hty tty pairs) in
  let oid i = Atom.Oid i in
  put "ints" Atom.TOid Atom.TInt
    [ (oid 0, Atom.Int 10); (oid 1, Atom.Int 20); (oid 2, Atom.Int 30); (oid 3, Atom.Int 20) ];
  put "strs" Atom.TOid Atom.TStr
    [ (oid 0, Atom.Str "a"); (oid 1, Atom.Str "b"); (oid 2, Atom.Str "a") ];
  put "bools" Atom.TOid Atom.TBool
    [ (oid 0, Atom.Bool true); (oid 1, Atom.Bool false); (oid 2, Atom.Bool true) ];
  put "links" Atom.TOid Atom.TOid [ (oid 0, oid 1); (oid 1, oid 2); (oid 2, oid 0) ];
  put "flts" Atom.TOid Atom.TFlt [ (oid 0, Atom.Flt 1.5); (oid 1, Atom.Flt 2.5) ];
  cat

let test_decl =
  {
    Milcheck.f_arities = [ 1 ];
    f_meta_min = 1;
    f_result = { Milprop.unknown with hty = Some Atom.TOid; tty = Some Atom.TFlt };
    f_pure = true;
    f_shares = false;
    f_writes = false;
    f_rows = None;
  }

let fixture_env cat =
  Milcheck.env ~foreign:(function "t_probe" -> Some test_decl | _ -> None) cat

(* the one analysis of a single-root bundle *)
let analyze env plan = Milcheck.analyze env [ plan ]

let fixture_foreign ~name ~args ~meta:_ =
  match (name, args) with
  | "t_probe", [ b ] -> Bat.calc1 Bat.ToFlt b
  | _ -> failwith ("unexpected foreign " ^ name)

(* Every Mil.t constructor at least once, all well-formed. *)
let well_formed_plans =
  let g = Mil.Get "ints" in
  let links = Mil.Get "links" in
  [
    g;
    Mil.Lit
      { hty = Atom.TOid; tty = Atom.TInt; pairs = [ (Atom.Oid 0, Atom.Int 1); (Atom.Oid 1, Atom.Int 2) ] };
    Mil.Reverse g;
    Mil.Mirror g;
    Mil.Mark (g, 100);
    Mil.NumberHead (g, 5);
    Mil.NumberTail (g, 5);
    Mil.Project (g, Atom.Str "k");
    Mil.Calc1 (Bat.Neg, g);
    Mil.Calc1 (Bat.Not, Mil.Get "bools");
    Mil.CalcConst (Bat.Add, g, Atom.Int 7);
    Mil.CalcConst (Bat.Div, g, Atom.Int 2);
    Mil.ConstCalc (Bat.Sub, Atom.Int 100, g);
    Mil.Calc2 (Bat.Add, g, g);
    Mil.Calc2 (Bat.CmpOp Bat.Lt, g, Mil.CalcConst (Bat.Mul, g, Atom.Int 2));
    Mil.SelectCmp (g, Bat.Gt, Atom.Int 15);
    Mil.SelectRange (g, Atom.Int 10, Atom.Int 25);
    Mil.SelectBool (Mil.Get "bools");
    Mil.Join (links, g);
    Mil.LeftOuterJoin (links, Mil.SelectCmp (g, Bat.Gt, Atom.Int 15), Atom.Int 0);
    Mil.Semijoin (g, Mil.Get "strs");
    Mil.Antijoin (g, Mil.SelectCmp (g, Bat.Eq, Atom.Int 20));
    Mil.Kunion (Mil.SelectCmp (g, Bat.Gt, Atom.Int 15), g);
    Mil.PairUnion (g, g);
    Mil.PairDiff (g, Mil.SelectCmp (g, Bat.Eq, Atom.Int 20));
    Mil.PairInter (g, Mil.SelectCmp (g, Bat.Eq, Atom.Int 20));
    Mil.Append (g, Mil.Lit { hty = Atom.TOid; tty = Atom.TInt; pairs = [ (Atom.Oid 9, Atom.Int 9) ] });
    Mil.Unique (Mil.Append (g, g));
    Mil.UniqueHead (Mil.Append (g, g));
    Mil.GroupAggr (Bat.Sum, Mil.Join (links, g));
    Mil.GroupAggr (Bat.Avg, g);
    Mil.AggrAll (Bat.Count, g);
    Mil.AggrAll (Bat.Sum, g);
    Mil.AggrAll (Bat.Max, g);
    Mil.GroupRank { link = links; key = g; desc = true; limit = None };
    Mil.SortTail (g, false);
    Mil.SortTail (g, true);
    Mil.Slice (g, 1, 2);
    Mil.TopN (g, 2, true);
    Mil.Foreign { name = "t_probe"; args = [ g ]; meta = [ "m" ] };
  ]

(* Ill-formed plans the verifier must reject (one per failure class —
   well over the required five). *)
let ill_formed_plans =
  let g = Mil.Get "ints" in
  [
    ("unbound get", Mil.Get "no_such_bat");
    ( "lit type mismatch",
      Mil.Lit { hty = Atom.TOid; tty = Atom.TInt; pairs = [ (Atom.Oid 0, Atom.Str "x") ] } );
    ("not on ints", Mil.Calc1 (Bat.Not, g));
    ("neg on strs", Mil.Calc1 (Bat.Neg, Mil.Get "strs"));
    ("div by zero const", Mil.CalcConst (Bat.Div, g, Atom.Int 0));
    ("add int/str", Mil.CalcConst (Bat.Add, g, Atom.Str "x"));
    ("and on ints", Mil.ConstCalc (Bat.And, Atom.Bool true, g));
    ("calc2 misaligned heads", Mil.Calc2 (Bat.Add, Mil.Reverse g, g));
    ("calc2 bad tails", Mil.Calc2 (Bat.Sub, g, Mil.Get "strs"));
    ("select_bool on ints", Mil.SelectBool g);
    ("join type mismatch", Mil.Join (g, g));
    ("outerjoin bad default", Mil.LeftOuterJoin (Mil.Get "links", g, Atom.Str "d"));
    ("kunion tail mismatch", Mil.Kunion (g, Mil.Get "strs"));
    ("append tail mismatch", Mil.Append (g, Mil.Get "strs"));
    ("pair_union mismatch", Mil.PairUnion (g, Mil.Get "strs"));
    ("avg of strs", Mil.GroupAggr (Bat.Avg, Mil.Get "strs"));
    ("prod of strs", Mil.AggrAll (Bat.Prod, Mil.Get "strs"));
    ("unknown foreign", Mil.Foreign { name = "mystery_op"; args = [ g ]; meta = [] });
    ("foreign arity", Mil.Foreign { name = "t_probe"; args = [ g; g ]; meta = [ "m" ] });
    ("foreign meta", Mil.Foreign { name = "t_probe"; args = [ g ]; meta = [] });
  ]

let test_verify_well_formed () =
  let env = fixture_env (fixture_catalog ()) in
  List.iter
    (fun plan ->
      match Milcheck.verify (analyze env plan) with
      | Ok () -> ()
      | Error ds ->
        Alcotest.failf "plan %s rejected: %s" (Mil.op_name plan) (Plancheck.diags_to_string ds))
    well_formed_plans

let test_verify_ill_formed () =
  let env = fixture_env (fixture_catalog ()) in
  List.iter
    (fun (label, plan) ->
      let a = analyze env plan in
      match Milcheck.verify a with
      | Ok () ->
        Alcotest.failf "%s accepted with envelope %s" label
          (Milprop.to_string (Milcheck.prop a plan))
      | Error _ -> ())
    ill_formed_plans

(* Soundness: execute every well-formed plan through the checked
   executor — the result BAT must lie inside the inferred envelope. *)
let test_exec_checked_sound () =
  let cat = fixture_catalog () in
  let env = fixture_env cat in
  let session = Mil.session ~foreign:fixture_foreign cat in
  List.iter
    (fun plan ->
      match Milcheck.exec_checked (analyze env plan) session plan with
      | _ -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" (Mil.op_name plan) msg)
    well_formed_plans

(* A stale analysis must be caught by the checked executor: analysed
   against a catalog whose "ints" has two distinct tails, executed
   against the fixture's four (two of them equal). *)
let test_exec_checked_catches_violation () =
  let stale = Catalog.create () in
  Catalog.put stale "ints"
    (Bat.of_pairs Atom.TOid Atom.TInt [ (Atom.Oid 0, Atom.Int 1); (Atom.Oid 1, Atom.Int 2) ]);
  let lying = analyze (Milcheck.env stale) (Mil.Get "ints") in
  let session = Mil.session (fixture_catalog ()) in
  match Milcheck.exec_checked lying session (Mil.Get "ints") with
  | _ -> Alcotest.fail "envelope violation not detected"
  | exception Failure _ -> ()

let test_warnings () =
  let env = fixture_env (fixture_catalog ()) in
  let warnings plan =
    List.filter
      (fun d -> d.Milcheck.severity = Milcheck.Warning)
      (analyze env plan).Milcheck.diags
  in
  let expect_warning label plan =
    if warnings plan = [] then Alcotest.failf "%s: expected a warning" label;
    match Milcheck.verify (analyze env plan) with
    | Ok () -> ()
    | Error ds -> Alcotest.failf "%s: warnings must not reject (%s)" label (Plancheck.diags_to_string ds)
  in
  expect_warning "semijoin head mismatch" (Mil.Semijoin (Mil.Get "ints", Mil.Reverse (Mil.Get "ints")));
  expect_warning "antijoin head mismatch" (Mil.Antijoin (Mil.Get "ints", Mil.Reverse (Mil.Get "ints")));
  expect_warning "select type mismatch" (Mil.SelectCmp (Mil.Get "ints", Bat.Eq, Atom.Str "x"));
  expect_warning "inverted range" (Mil.SelectRange (Mil.Get "ints", Atom.Int 9, Atom.Int 1));
  expect_warning "min over possibly-empty"
    (Mil.AggrAll (Bat.Min, Mil.SelectCmp (Mil.Get "ints", Bat.Gt, Atom.Int 0)))

let test_lint_smells () =
  let env = fixture_env (fixture_catalog ()) in
  let g = Mil.Get "ints" in
  let expect_diag label plan needle =
    let ds = Milcheck.lint (analyze env plan) in
    if not (List.exists (fun d -> contains ~needle d.Milcheck.message) ds)
    then
      Alcotest.failf "%s: no diagnostic mentioning %S in: %s" label needle
        (Plancheck.diags_to_string ds)
  in
  expect_diag "reverse chain" (Mil.Reverse (Mil.Reverse g)) "cancels";
  expect_diag "mirror chain" (Mil.Mirror (Mil.Mirror g)) "mirror chain";
  expect_diag "unique twice" (Mil.Unique (Mil.Unique g)) "redundant";
  expect_diag "self semijoin" (Mil.Semijoin (g, g)) "identity";
  expect_diag "append empty"
    (Mil.Append (g, Mil.Lit { hty = Atom.TOid; tty = Atom.TInt; pairs = [] }))
    "empty literal";
  expect_diag "slice of sort" (Mil.Slice (Mil.SortTail (g, true), 0, 3)) "fuse";
  expect_diag "constant selection"
    (Mil.SelectCmp (Mil.Project (g, Atom.Int 5), Bat.Eq, Atom.Int 7))
    "always false";
  expect_diag "dead subplan"
    (Mil.Join (Mil.Lit { hty = Atom.TOid; tty = Atom.TOid; pairs = [] }, g))
    "dead"

(* {1 Golden property-inference tests on compiled bundles} *)

let golden_cases =
  [
    (* atomic per-context int: one slot per R row, dense contexts *)
    ( "map[THIS.a](R)",
      [ "[oid->oid |4| dense-head,sorted-tail]"; "[oid->int |4| dense-head]" ] );
    (* aggregation of the whole extent: exactly one row *)
    ("sum(map[THIS.a](R))", [ "[oid->int |1| dense-head]" ]);
    ("count(R)", [ "[oid->int |1| dense-head]" ]);
  ]

let test_property_golden () =
  let st = Corpus.storage () in
  List.iter
    (fun (src, expected) ->
      let shape = Flatten.compile st (Optimize.rewrite (parse_q src)) in
      let shape = Shape.map Milopt.rewrite shape in
      let a = Storage.analyze st shape in
      let actual =
        List.map (fun p -> Milprop.to_string (Milcheck.prop a p)) (Shape.plans shape)
      in
      Alcotest.(check (list string)) src expected actual)
    golden_cases

(* {1 Corpus acceptance: verifier + differential checker} *)

let test_corpus_vet () =
  let st = Corpus.storage () in
  List.iter
    (fun src ->
      match Plancheck.vet st (parse_q src) with
      | Ok (_ : Plancheck.vetted) -> ()
      | Error e -> Alcotest.failf "%s: %s" src e)
    Corpus.queries

(* Every executed operator is seen by the trace: over each corpus
   query, with and without the memo table, the rollup's calls less its
   memo-hit events are the operators the executor evaluated, and the
   memo-hit events are its memo hits.  Translation validation compares
   at least one envelope per query. *)
let test_corpus_rollup_adds_up () =
  let st = Corpus.storage () in
  let all_hits = ref 0 in
  List.iter
    (fun src ->
      let expr = parse_q src in
      List.iter
        (fun cse ->
          let trace = Trace.create () in
          let r = ok (Eval.query ~cse ~trace st expr) in
          let calls, hits =
            List.fold_left
              (fun (c, h) (_, (a : Trace.agg)) -> (c + a.calls, h + a.flagged))
              (0, 0) (Eval.rollup trace)
          in
          Alcotest.(check int) (src ^ ": calls less memo hits") r.Eval.evaluated (calls - hits);
          Alcotest.(check int) (src ^ ": memo-hit events") r.Eval.memo_hits hits;
          all_hits := !all_hits + hits)
        [ true; false ];
      let shape = Flatten.compile st expr in
      match Moacheck.validate st expr (Storage.analyze st shape) shape with
      | Ok n -> Alcotest.(check bool) (src ^ ": envelopes compared") true (n > 0)
      | Error _ -> Alcotest.failf "%s: translation validation failed" src)
    Corpus.queries;
  Alcotest.(check bool) "the corpus exercises the memo table" true (!all_hits > 0)

(* Checked execution across the whole corpus: ~check must neither
   change any result nor trip an envelope violation. *)
let test_corpus_checked_execution () =
  let st = Corpus.storage () in
  let value_testable = Alcotest.testable Value.pp Value.equal in
  List.iter
    (fun src ->
      let expr = parse_q src in
      let plain = ok (Eval.query st expr) in
      let checked =
        match Eval.query ~check:true st expr with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s [checked]: %s" src e
      in
      Alcotest.check value_testable src plain.Eval.value checked.Eval.value)
    Corpus.queries

(* {1 Satellites: Milopt fixpoint, Mil.Unbound} *)

let test_milopt_idempotent_corpus () =
  let st = Corpus.storage () in
  List.iter
    (fun src ->
      let shape = Flatten.compile st (Optimize.rewrite (parse_q src)) in
      Shape.iter
        (fun p ->
          let once = Milopt.rewrite p in
          let twice = Milopt.rewrite once in
          if once <> twice then
            Alcotest.failf "%s: rewrite not idempotent:\n%s\nvs\n%s" src (Mil.to_string once)
              (Mil.to_string twice))
        shape)
    Corpus.queries

let test_milopt_deep_chains () =
  let g = Mil.Get "x" in
  let rec build f n p = if n = 0 then p else build f (n - 1) (f p) in
  (* far deeper than the old 10-pass cap could have guaranteed *)
  let deep_rev = build (fun p -> Mil.Reverse p) 64 g in
  Alcotest.(check bool) "reverse chain collapses" true (Milopt.rewrite deep_rev = g);
  let deep_mix = build (fun p -> Mil.Reverse (Mil.Mirror p)) 40 g in
  let once = Milopt.rewrite deep_mix in
  Alcotest.(check bool) "mixed chain reaches fixpoint" true (Milopt.rewrite once = once);
  let deep_semi = build (fun p -> Mil.Semijoin (p, g)) 32 (Mil.Semijoin (g, g)) in
  let once = Milopt.rewrite deep_semi in
  Alcotest.(check bool) "semijoin chain reaches fixpoint" true (Milopt.rewrite once = once)

let test_unbound_exception () =
  let cat = fixture_catalog () in
  let session = Mil.session cat in
  (match Mil.exec session (Mil.Get "missing_name") with
  | _ -> Alcotest.fail "expected Mil.Unbound"
  | exception Mil.Unbound name -> Alcotest.(check string) "carries the name" "missing_name" name);
  (* bound names keep working *)
  Alcotest.(check int) "bound get" 4 (Bat.count (Mil.exec session (Mil.Get "ints")))

let () =
  Alcotest.run "milcheck"
    [
      ( "verify",
        [
          Alcotest.test_case "accepts every constructor" `Quick test_verify_well_formed;
          Alcotest.test_case "rejects ill-formed plans" `Quick test_verify_ill_formed;
          Alcotest.test_case "warnings do not reject" `Quick test_warnings;
        ] );
      ( "exec-checked",
        [
          Alcotest.test_case "sound over all constructors" `Quick test_exec_checked_sound;
          Alcotest.test_case "catches envelope violations" `Quick test_exec_checked_catches_violation;
        ] );
      ( "lint",
        [ Alcotest.test_case "pattern smells" `Quick test_lint_smells ] );
      ( "bundles",
        [
          Alcotest.test_case "golden envelopes" `Quick test_property_golden;
          Alcotest.test_case "corpus vet (verify + differential)" `Quick test_corpus_vet;
          Alcotest.test_case "corpus checked execution" `Quick test_corpus_checked_execution;
          Alcotest.test_case "corpus rollup adds up" `Quick test_corpus_rollup_adds_up;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "milopt idempotent on corpus" `Quick test_milopt_idempotent_corpus;
          Alcotest.test_case "milopt deep chains" `Quick test_milopt_deep_chains;
          Alcotest.test_case "Mil.Unbound" `Quick test_unbound_exception;
        ] );
    ]
