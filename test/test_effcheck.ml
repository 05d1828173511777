(* The effect-and-aliasing analyzer (Effcheck) and its runtime
   sanitizer.

   The static half is exercised on kernel plans (no hazards, CSE-aware
   sharing counts, safe-partition verdicts) and on Foreign operators
   with honest, dishonest and missing effect declarations.  The dynamic
   half checks the executor's actual physical sharing — memo hits
   return identical BATs, reverse/mirror alias their inputs — is
   accepted, while a test-only operator that mutates or leaks its
   argument columns is caught red-handed. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil
module Milcheck = Mirror_bat.Milcheck
module Milprop = Mirror_bat.Milprop
module Effcheck = Mirror_bat.Effcheck
module Corpus = Mirror_core.Corpus
module Lintreport = Mirror_core.Lintreport
module Eval = Mirror_core.Eval
module Parser = Mirror_core.Parser
module Jsonx = Mirror_util.Jsonx

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let fixture () =
  let c = Catalog.create () in
  Catalog.put c "ints"
    (Bat.of_pairs Atom.TOid Atom.TInt
       (List.init 12 (fun i -> (Atom.Oid i, Atom.Int ((i * 5) mod 7)))));
  Catalog.put c "link"
    (Bat.of_pairs Atom.TOid Atom.TOid
       (List.init 12 (fun i -> (Atom.Oid i, Atom.Oid (i mod 4)))));
  c

let ints = Mil.Get "ints"

(* a one-argument foreign declaration with the given effect *)
let decl ~pure ~writes =
  {
    Milcheck.f_arities = [ 1 ];
    f_meta_min = 0;
    f_result = Milprop.unknown;
    f_pure = pure;
    f_shares = false;
    f_writes = writes;
    f_rows = None;
  }

let env ?(foreign = fun _ -> None) () = Milcheck.env ~foreign (fixture ())
let verdict env plans = Effcheck.verdict (Milcheck.analyze env plans)
let hazards env plan = (verdict env [ plan ]).Effcheck.hazards

(* {1 CSE physical sharing} *)

(* A memo hit must return the physically identical BAT — that sharing
   is what the whole analysis models, so pin it down as a contract. *)
let test_memo_identity () =
  let session = Mil.session (fixture ()) in
  let plan () = Mil.SortTail (Mil.Reverse ints, false) in
  let b1 = Mil.exec session (plan ()) in
  (* a structurally equal but physically distinct plan term *)
  let b2 = Mil.exec session (plan ()) in
  Alcotest.(check bool) "memo hit returns the identical Bat.t" true (b1 == b2);
  let stats = Mil.stats session in
  Alcotest.(check bool) "second execution was a memo hit" true (stats.Mil.memo_hits >= 1)

let test_kernel_aliasing () =
  let catalog = fixture () in
  let session = Mil.session catalog in
  let base = Catalog.get catalog "ints" in
  let r = Mil.exec session (Mil.Reverse ints) in
  Alcotest.(check bool) "reverse shares its input's columns swapped" true
    (Bat.head r == Bat.tail base && Bat.tail r == Bat.head base);
  let m = Mil.exec session (Mil.Mirror ints) in
  Alcotest.(check bool) "mirror aliases the input head twice" true
    (Bat.head m == Bat.head base && Bat.tail m == Bat.head base)

(* {1 Static analysis} *)

let test_analyze_pure () =
  let shared = Mil.Reverse ints in
  let p1 = Mil.SortTail (shared, false) in
  let p2 = Mil.Slice (shared, 0, 4) in
  let v = verdict (env ()) [ p1; p2 ] in
  Alcotest.(check int) "CSE merges the shared subplan" 4 v.Effcheck.nodes;
  Alcotest.(check (list string)) "no hazards in a kernel-only bundle" []
    (List.map Milcheck.diag_to_string v.Effcheck.hazards);
  Alcotest.(check int) "pure plans partition into singletons" v.Effcheck.nodes
    v.Effcheck.partitions;
  (* get's two catalog columns + reverse's two aliases of them *)
  Alcotest.(check bool) "catalog aliasing is visible" true (v.Effcheck.shared_columns >= 4)

let test_undeclared_foreign () =
  let plan = Mil.Foreign { name = "mystery"; args = [ ints ]; meta = [] } in
  match hazards (env ()) plan with
  | [ d ] ->
    Alcotest.(check bool) "error severity" true (d.Milcheck.severity = Milcheck.Error);
    Alcotest.(check bool) "mentions the missing declaration" true
      (contains ~sub:"effect declaration" d.Milcheck.message)
  | ds -> Alcotest.failf "expected exactly one hazard, got %d" (List.length ds)

(* An honestly-declared writer: Effcheck must flag the write statically
   — as an error here, because the written argument aliases the
   catalog through mirror. *)
let test_declared_writer_static () =
  let eff = decl ~pure:false ~writes:true in
  let env = env ~foreign:(fun n -> if n = "scribble" then Some eff else None) () in
  let plan = Mil.Foreign { name = "scribble"; args = [ Mil.Mirror ints ]; meta = [] } in
  let ds = hazards env plan in
  let errors = List.filter (fun d -> d.Milcheck.severity = Milcheck.Error) ds in
  Alcotest.(check int) "mutation under sharing is an error" 1 (List.length errors);
  Alcotest.(check bool) "names the catalog" true
    (contains ~sub:"catalog" (List.hd errors).Milcheck.message);
  (* and the effectful node serialises the whole DAG it touches *)
  let v = verdict env [ plan ] in
  Alcotest.(check bool) "writer collapses partitions" true
    (v.Effcheck.partitions < v.Effcheck.nodes)

let test_unordered_effects () =
  let eff = decl ~pure:false ~writes:false in
  let env =
    env ~foreign:(fun n -> if String.length n > 3 && String.sub n 0 4 = "emit" then Some eff else None) ()
  in
  let emit name arg = Mil.Foreign { name; args = [ arg ]; meta = [] } in
  let plan = Mil.Join (emit "emit_a" ints, emit "emit_b" (Mil.Get "link")) in
  let ds = hazards env plan in
  Alcotest.(check bool) "flags the non-commutable sibling effects" true
    (List.exists
       (fun d -> contains ~sub:"non-commutable" d.Milcheck.message)
       ds);
  let v = verdict env [ plan ] in
  (* both effectful nodes land in one partition *)
  Alcotest.(check int) "effects serialise together" (v.Effcheck.nodes - 1)
    v.Effcheck.partitions

(* {1 Runtime sanitizer} *)

let test_sanitizer_benign () =
  let catalog = fixture () in
  let san = Effcheck.sanitizer (env ()) (Mil.session catalog) in
  (* aliasing-heavy kernel plans over shared subplans and the catalog *)
  let plans =
    [
      Mil.Reverse ints;
      Mil.Mirror (Mil.Reverse ints);
      Mil.Project (Mil.Reverse ints, Atom.Int 9);
      Mil.Join (Mil.Get "link", Mil.Mirror ints);
      Mil.Calc1 (Bat.Neg, ints);
    ]
  in
  List.iter (fun p -> ignore (Effcheck.exec san p)) plans;
  Effcheck.finish san;
  Alcotest.(check pass) "benign sharing accepted" () ()

let test_sanitizer_requires_cse () =
  let session = Mil.session ~cse:false (fixture ()) in
  Alcotest.check_raises "refuses a session without CSE"
    (Invalid_argument "Effcheck.sanitizer: the session must have CSE enabled") (fun () ->
      ignore (Effcheck.sanitizer (env ()) session))

(* A test-only operator that mutates its argument column in place,
   lying about it (declared pure): the static analyzer believes the
   declaration, but the sanitizer catches the fingerprint drift. *)
let test_sanitizer_catches_mutation () =
  let catalog = fixture () in
  let mutate ~name:_ ~args ~meta:_ =
    let arg = List.hd args in
    Column.set (Bat.tail arg) 0 (Atom.Int 999);
    Bat.of_pairs (Bat.hty arg) (Bat.tty arg) (Bat.to_pairs arg)
  in
  let pure = decl ~pure:true ~writes:false in
  let env = env ~foreign:(fun n -> if n = "evil_scribble" then Some pure else None) () in
  let plan = Mil.Foreign { name = "evil_scribble"; args = [ ints ]; meta = [] } in
  Alcotest.(check (list string)) "the lie passes the static lint" []
    (List.map Milcheck.diag_to_string (hazards env plan));
  let san = Effcheck.sanitizer env (Mil.session ~foreign:mutate catalog) in
  (match Effcheck.exec san plan with
  | _ -> Alcotest.fail "sanitizer accepted an in-place mutation"
  | exception Effcheck.Violation msg ->
    Alcotest.(check bool) "blames the mutated column" true
      (contains ~sub:"mutated in place" msg))

(* A test-only operator that returns its argument BAT as its result
   while declaring it never shares: caught at the result check. *)
let test_sanitizer_catches_aliasing () =
  let catalog = fixture () in
  let leak ~name:_ ~args ~meta:_ = List.hd args in
  let pure = decl ~pure:true ~writes:false in
  let env = env ~foreign:(fun n -> if n = "evil_alias" then Some pure else None) () in
  let plan = Mil.Foreign { name = "evil_alias"; args = [ ints ]; meta = [] } in
  let san = Effcheck.sanitizer env (Mil.session ~foreign:leak catalog) in
  match Effcheck.exec san plan with
  | _ -> Alcotest.fail "sanitizer accepted undeclared aliasing"
  | exception Effcheck.Violation msg ->
    Alcotest.(check bool) "blames the effect signature" true
      (contains ~sub:"outside its effect signature" msg)

(* {1 CLI integration: JSON report and explain analyze} *)

let test_lint_json_schema () =
  Mirror_core.Bootstrap.ensure ();
  let st = Corpus.storage () in
  let report = Lintreport.sweep st Corpus.queries in
  Alcotest.(check int) "corpus is hazard-free" 0 report.Lintreport.failures;
  let doc =
    match Jsonx.parse (Jsonx.to_string (Lintreport.to_json report)) with
    | Ok v -> v
    | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  in
  Alcotest.(check (option string))
    "schema tag" (Some "mirror-lint/v2")
    (Option.bind (Jsonx.member "schema" doc) Jsonx.to_str);
  Alcotest.(check (option int))
    "checked count" (Some (List.length Corpus.queries))
    (Option.bind (Jsonx.member "checked" doc) Jsonx.to_int);
  let queries =
    match Option.bind (Jsonx.member "queries" doc) Jsonx.to_list with
    | Some qs -> qs
    | None -> Alcotest.fail "missing queries array"
  in
  Alcotest.(check int) "one entry per query" (List.length Corpus.queries)
    (List.length queries);
  List.iter
    (fun q ->
      List.iter
        (fun field ->
          if Jsonx.member field q = None then
            Alcotest.failf "query entry lacks %S" field)
        [ "src"; "failed"; "error"; "nodes"; "partitions"; "shared_columns"; "diagnostics" ];
      (match Option.bind (Jsonx.member "partitions" q) Jsonx.to_int with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "query entry lacks a positive partition count");
      match Option.bind (Jsonx.member "diagnostics" q) Jsonx.to_list with
      | None -> Alcotest.fail "diagnostics is not an array"
      | Some ds ->
        List.iter
          (fun d ->
            match Option.bind (Jsonx.member "layer" d) Jsonx.to_str with
            | Some ("moa" | "mil" | "eff") -> ()
            | _ -> Alcotest.fail "diagnostic lacks a known layer tag")
          ds)
    queries

let test_explain_analyze_partitions () =
  Mirror_core.Bootstrap.ensure ();
  let st = Corpus.storage () in
  List.iter
    (fun src ->
      let expr =
        match Parser.parse_expr src with
        | Ok e -> e
        | Error e -> Alcotest.failf "parse %s: %s" src e
      in
      match Eval.explain_analyze st expr with
      | Error e -> Alcotest.failf "explain analyze %s: %s" src e
      | Ok text ->
        Alcotest.(check bool)
          (Printf.sprintf "partition verdict reported for %s" src)
          true
          (contains ~sub:"safe partition" text))
    [ "map[THIS.a + 1](R)"; "map[sum(getBL(THIS.c, {'cat'}))](R)" ]

(* checked execution over the corpus drives the sanitizer end-to-end *)
let test_checked_query_sanitized () =
  Mirror_core.Bootstrap.ensure ();
  let st = Corpus.storage () in
  List.iter
    (fun src ->
      let expr =
        match Parser.parse_expr src with
        | Ok e -> e
        | Error e -> Alcotest.failf "parse %s: %s" src e
      in
      match Eval.query ~check:true st expr with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checked query %s: %s" src e)
    [ "map[THIS.a * 2](select[THIS.b < 10](R))"; "map[count(THIS.s)](R)" ]

let () =
  Alcotest.run "effcheck"
    [
      ( "sharing",
        [
          Alcotest.test_case "memo hit returns the identical BAT" `Quick test_memo_identity;
          Alcotest.test_case "reverse/mirror alias their inputs" `Quick test_kernel_aliasing;
        ] );
      ( "static",
        [
          Alcotest.test_case "pure bundle: no hazards, singleton partitions" `Quick
            test_analyze_pure;
          Alcotest.test_case "undeclared foreign is an error" `Quick test_undeclared_foreign;
          Alcotest.test_case "declared writer under sharing is an error" `Quick
            test_declared_writer_static;
          Alcotest.test_case "sibling effects are non-commutable" `Quick
            test_unordered_effects;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "benign kernel sharing accepted" `Quick test_sanitizer_benign;
          Alcotest.test_case "requires a CSE session" `Quick test_sanitizer_requires_cse;
          Alcotest.test_case "catches in-place mutation" `Quick
            test_sanitizer_catches_mutation;
          Alcotest.test_case "catches undeclared aliasing" `Quick
            test_sanitizer_catches_aliasing;
        ] );
      ( "integration",
        [
          Alcotest.test_case "lint --json schema" `Quick test_lint_json_schema;
          Alcotest.test_case "explain analyze reports partitions" `Quick
            test_explain_analyze_partitions;
          Alcotest.test_case "checked queries run under the sanitizer" `Quick
            test_checked_query_sanitized;
        ] );
    ]
