(* Boundcheck: static resource bounds over analysed MIL bundles.

   Covers the per-constructor selectivity rules (estimates clamped
   into the sound cardinality interval), string payload tracking,
   degradation to an unbounded envelope on foreigns without a declared
   row rule, the liveness simulation on diamond DAGs (reclaim peak
   strictly below memo residency), the session admission gate
   (accept / refuse / fail-closed on unbounded plans; per-root bounds
   read from a bundle's table equal to analysing the root alone), the
   tightness and soundness of the bounds above CONTREP's getbl
   operator, and the mirror-lint/v2 JSON report over the example
   corpus. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil
module Milprop = Mirror_bat.Milprop
module Milcheck = Mirror_bat.Milcheck
module Boundcheck = Mirror_bat.Boundcheck
module Jsonx = Mirror_util.Jsonx
module Corpus = Mirror_core.Corpus
module Lintreport = Mirror_core.Lintreport
module Mirror = Mirror_core.Mirror
module Storage = Mirror_core.Storage
module Shape = Mirror_core.Shape
module Flatten = Mirror_core.Flatten
module Optimize = Mirror_core.Optimize
module Parser = Mirror_core.Parser
module Eval = Mirror_core.Eval
module Expr = Mirror_core.Expr
module Value = Mirror_core.Value
module Extension = Mirror_core.Extension
module Index = Mirror_ir.Index
module Prng = Mirror_util.Prng

let oid i = Atom.Oid i

let fixture () =
  let cat = Catalog.create () in
  let put name hty tty pairs = Catalog.put cat name (Bat.of_pairs hty tty pairs) in
  put "ints" Atom.TOid Atom.TInt (List.init 16 (fun i -> (oid i, Atom.Int ((i * 7) mod 23))));
  put "bools" Atom.TOid Atom.TBool (List.init 13 (fun i -> (oid i, Atom.Bool (i mod 3 = 0))));
  put "strs" Atom.TOid Atom.TStr
    [ (oid 0, Atom.Str "a"); (oid 1, Atom.Str "bc"); (oid 2, Atom.Str "a") ];
  cat

let analyze_one ?foreign cat plan = Milcheck.analyze (Milcheck.env ?foreign cat) [ plan ]

let cost_of a plan =
  match Mil.Tbl.find_opt a.Milcheck.table plan with
  | Some f -> f
  | None -> Alcotest.failf "no fact computed for %s" (Mil.op_name plan)

let check_consistent a =
  List.iter
    (fun (f : Milcheck.fact) ->
      let rows = f.Milcheck.prop.Milprop.card in
      if f.Milcheck.est < rows.Milprop.lo then
        Alcotest.failf "%s: est %d below lo %d" f.Milcheck.path f.Milcheck.est rows.Milprop.lo;
      match rows.Milprop.hi with
      | Some hi when f.Milcheck.est > hi ->
        Alcotest.failf "%s: est %d above hi %d" f.Milcheck.path f.Milcheck.est hi
      | _ -> ())
    a.Milcheck.nodes

(* {1 Selectivity rules} *)

let test_selectivity () =
  let cat = fixture () in
  let ints = Mil.Get "ints" in
  let est plan = (cost_of (analyze_one cat plan) plan).Milcheck.est in
  Alcotest.(check int) "Get is exact" 16 (est ints);
  Alcotest.(check int) "equality keeps ~1/10" 1 (est (Mil.SelectCmp (ints, Bat.Eq, Atom.Int 7)));
  Alcotest.(check int) "range cmp keeps ~1/3" 5 (est (Mil.SelectCmp (ints, Bat.Lt, Atom.Int 7)));
  Alcotest.(check int) "bool select keeps ~1/2" 6 (est (Mil.SelectBool (Mil.Get "bools")));
  Alcotest.(check int) "unique halves" 8 (est (Mil.Unique ints));
  let all = Mil.AggrAll (Bat.Count, ints) in
  let b = analyze_one cat all in
  let c = cost_of b all in
  Alcotest.(check int) "aggr-all is one row" 1 c.Milcheck.est;
  let rows = c.Milcheck.prop.Milprop.card in
  Alcotest.(check (pair int (option int)))
    "aggr-all interval is exact" (1, Some 1)
    (rows.Milprop.lo, rows.Milprop.hi);
  (* estimates never escape the sound interval, and the layer says so *)
  let big =
    Mil.Join (Mil.SelectCmp (ints, Bat.Ge, Atom.Int 3), Mil.Reverse (Mil.Unique ints))
  in
  let a = analyze_one cat big in
  check_consistent a;
  Alcotest.(check int) "no bound-layer errors" 0
    (List.length
       (Milcheck.errors (a.Milcheck.diags @ (Boundcheck.footprints a).Boundcheck.diags)))

let test_string_payload () =
  let cat = fixture () in
  let strs = Mil.Get "strs" in
  let c = cost_of (analyze_one cat strs) strs in
  Alcotest.(check (option int)) "head cells are fixed slots" (Some 8)
    c.Milcheck.head_rb.Milcheck.rb_max;
  (* longest payload is "bc": 8-byte slot + 2 bytes *)
  Alcotest.(check (option int)) "string cell bound tracks the longest payload" (Some 10)
    c.Milcheck.tail_rb.Milcheck.rb_max;
  (* a fresh-tail op over strings keeps the bound finite *)
  let marked = Mil.Mark (strs, 100) in
  let cm = cost_of (analyze_one cat marked) marked in
  Alcotest.(check (option int)) "mark resets the tail to a fixed slot" (Some 8)
    cm.Milcheck.tail_rb.Milcheck.rb_max

(* {1 Foreigns: declared rule vs unbounded degradation} *)

(* a pure one-argument operator with no row rule *)
let probe_decl =
  {
    Milcheck.f_arities = [ 1 ];
    f_meta_min = 0;
    f_result = { Milprop.unknown with hty = Some Atom.TOid; tty = Some Atom.TInt };
    f_pure = true;
    f_shares = false;
    f_writes = false;
    f_rows = None;
  }

let probe_plan = Mil.Foreign { name = "t_probe"; args = [ Mil.Get "ints" ]; meta = [] }

let probe_footprints decl =
  let foreign = function "t_probe" -> Some decl | _ -> None in
  let a = analyze_one ~foreign (fixture ()) probe_plan in
  (a, Boundcheck.footprints a)

let test_foreign_unbounded () =
  let a, bounds = probe_footprints probe_decl in
  Alcotest.(check int) "no errors: degradation is a warning" 0
    (List.length (Milcheck.errors (a.Milcheck.diags @ bounds.Boundcheck.diags)));
  Alcotest.(check bool) "warning emitted for the undeclared bound" true
    (List.exists
       (fun d -> d.Milcheck.severity = Milcheck.Warning)
       bounds.Boundcheck.diags);
  Alcotest.(check (option int)) "resident upper bound degrades to unbounded" None
    bounds.Boundcheck.resident.Boundcheck.fp_hi

let test_foreign_declared () =
  let rule = function
    | [ (arg : Milcheck.fact) ] -> (arg.Milcheck.prop.Milprop.card, arg.Milcheck.est)
    | _ -> (Milprop.any_card, 0)
  in
  let a, bounds = probe_footprints { probe_decl with Milcheck.f_rows = Some rule } in
  Alcotest.(check bool) "declared rule keeps the plan bounded" true
    (bounds.Boundcheck.resident.Boundcheck.fp_hi <> None);
  Alcotest.(check bool) "no warnings either" true
    (List.for_all
       (fun d -> d.Milcheck.severity <> Milcheck.Warning)
       (a.Milcheck.diags @ bounds.Boundcheck.diags))

(* {1 Liveness: diamonds and chains} *)

let test_diamond_liveness () =
  let cat = fixture () in
  let base = Mil.Get "ints" in
  let x = Mil.CalcConst (Bat.Add, base, Atom.Int 1) in
  let y = Mil.CalcConst (Bat.Mul, base, Atom.Int 2) in
  let top = Mil.Calc2 (Bat.Add, x, y) in
  let a = analyze_one cat top in
  let bounds = Boundcheck.footprints a in
  let r = bounds.Boundcheck.resident and q = bounds.Boundcheck.reclaim in
  (* four distinct 16-row nodes, 16 bytes per row *)
  Alcotest.(check int) "memo residency sums every distinct node" 1024 r.Boundcheck.fp_est;
  Alcotest.(check bool) "reclaim peak strictly below residency" true
    (q.Boundcheck.fp_est < r.Boundcheck.fp_est);
  Alcotest.(check bool) "reclaim still holds at least producer+consumer" true
    (q.Boundcheck.fp_est >= 512);
  (match (q.Boundcheck.fp_hi, r.Boundcheck.fp_hi) with
  | Some qh, Some rh -> Alcotest.(check bool) "hi bounds ordered" true (qh <= rh)
  | _ -> Alcotest.fail "kernel-only diamond must be bounded");
  (* sharing: analyzing the diamond is cheaper than two independent copies *)
  let solo = cost_of a base in
  Alcotest.(check int) "shared base counted once" 16 solo.Milcheck.est

(* {1 Admission gate} *)

(* a session budget whose bound reads the analysis of [plan] alone *)
let budget cat max_bytes plan =
  { Mil.max_bytes; bound = Boundcheck.admission (analyze_one cat plan) }

let test_admission () =
  let cat = fixture () in
  let plan = Mil.SelectCmp (Mil.Get "ints", Bat.Ge, Atom.Int 0) in
  (* no budget: everything admitted *)
  let s = Mil.session cat in
  ignore (Mil.exec s plan);
  (* generous budget: admitted *)
  let s = Mil.session ~budget:(budget cat 1_000_000 plan) cat in
  Alcotest.(check int) "admitted under a generous budget" 16 (Bat.count (Mil.exec s plan));
  (* starved budget: refused with the structured diagnostic *)
  let s = Mil.session ~budget:(budget cat 8 plan) cat in
  (match Mil.exec s plan with
  | _ -> Alcotest.fail "admitted a plan over budget"
  | exception Mil.Admission_refused { peak_bytes; budget; _ } ->
    Alcotest.(check int) "diagnostic carries the budget" 8 budget;
    (match peak_bytes with
    | Some p -> Alcotest.(check bool) "peak really exceeds the budget" true (p > 8)
    | None -> Alcotest.fail "kernel-only plan should have a finite peak"));
  (* fail-closed: a foreign the analysis knows nothing about is
     refused even under a generous budget *)
  let foreign ~name:_ ~args ~meta:_ = List.hd args in
  let s = Mil.session ~foreign ~budget:(budget cat 1_000_000 probe_plan) cat in
  match Mil.exec s probe_plan with
  | _ -> Alcotest.fail "admitted an unanalyzable foreign plan"
  | exception Mil.Admission_refused { peak_bytes; _ } ->
    Alcotest.(check (option int)) "refused as unbounded" None peak_bytes

(* Per-root admission reads each root's resident bytes from the bundle
   table; facts are context-free, so that must equal analysing the
   root alone — for every root of every corpus bundle. *)
let test_admission_per_root () =
  Mirror_core.Bootstrap.ensure ();
  let st = Corpus.storage () in
  List.iter
    (fun src ->
      let expr = Result.get_ok (Parser.parse_expr src) in
      let shape = Flatten.compile st (Optimize.rewrite expr) in
      let shape = Shape.map Mirror_bat.Milopt.rewrite shape in
      let bundle = Storage.analyze st shape in
      List.iter
        (fun root ->
          let alone = Storage.analyze st (Shape.Atomic root) in
          let show = function
            | Some (est, hi) ->
              Printf.sprintf "%d/%s" est (match hi with Some h -> string_of_int h | None -> "*")
            | None -> "refused"
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: root %s" src (Mil.op_name root))
            (show (Boundcheck.admission alone root))
            (show (Boundcheck.admission bundle root)))
        (Shape.plans shape))
    Corpus.queries

(* {1 CONTREP getbl: tight and sound row bounds} *)

(* The bench's docs workload: one CONTREP annotation per document over
   a Zipf-distributed 150-word vocabulary. *)
let docs ~n =
  let m = Mirror.create () in
  let g = Prng.create (77 + n) in
  let weights = Array.init 150 (fun i -> 1.0 /. Float.of_int (i + 1)) in
  let word () = Printf.sprintf "w%d" (Prng.sample_weighted g weights) in
  let row i =
    let words = List.init (10 + Prng.int g 20) (fun _ -> word ()) in
    Value.Tup
      [
        ("source", Value.str (Printf.sprintf "img://%d" i));
        ("year", Value.int (1990 + Prng.int g 12));
        ("annotation", Value.contrep (Mirror_ir.Tokenize.bag_of_words words));
      ]
  in
  let schema =
    "define Docs as SET< TUPLE< Atomic<URL>: source, Atomic<int>: year, CONTREP<Text>: \
     annotation > >;"
  in
  ignore (Result.get_ok (Mirror.exec_program m schema));
  ignore (Result.get_ok (Mirror.load m ~name:"Docs" (List.init n row)));
  Mirror.storage m

(* The join above getbl is key-aware and getbl's row rule reads its
   arguments' facts, so the peak envelope stays within two orders of
   magnitude of the bytes the session actually held. *)
let test_getbl_peak () =
  Mirror_core.Bootstrap.ensure ();
  let st = docs ~n:64 in
  let src = "map[sum(getBL(THIS.annotation, query, stats))](Docs)" in
  let bindings = [ ("query", Expr.lit_str_set [ "w5"; "w12" ]) ] in
  let expr = Result.get_ok (Parser.parse_expr ~bindings src) in
  let r = Result.get_ok (Eval.query st expr) in
  (match (Lazy.force r.Eval.bounds).Eval.peak_bytes with
  | None -> Alcotest.fail "getBL query left unbounded"
  | Some peak ->
    if peak > 100 * r.Eval.actual_bytes then
      Alcotest.failf "peak %d B is over 100x the %d B actually held" peak r.Eval.actual_bytes);
  (* so a budget of 100x the held bytes admits the paper's query *)
  match Eval.query ~max_bytes:(100 * r.Eval.actual_bytes) st expr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "budgeted getBL query: %s" e

(* getbl emits one row per qlink entry of each dom context: one
   context, one query value and three qlink rows sharing its head make
   three rows, which the analysed interval must admit. *)
let test_getbl_rows_sound () =
  Mirror_core.Bootstrap.ensure ();
  let idx = Index.create "lib" in
  Index.add_doc idx ~doc:0 [ ("cat", 2.0) ];
  let cat = Catalog.create () in
  let occ_ctx, occ_term, occ_tf, len = Index.to_bats idx ~base:1000 in
  let put name b = Catalog.put cat name b in
  put "occ_ctx" occ_ctx;
  put "occ_term" occ_term;
  put "occ_tf" occ_tf;
  put "len" len;
  put "dom" (Bat.of_pairs Atom.TOid Atom.TOid [ (oid 0, oid 0) ]);
  put "qval" (Bat.of_pairs Atom.TOid Atom.TStr [ (oid 10, Atom.Str "cat") ]);
  put "qlink" (Bat.of_pairs Atom.TOid Atom.TOid (List.init 3 (fun _ -> (oid 10, oid 0))));
  let plan =
    Mil.Foreign
      {
        name = "contrep_getbl";
        args =
          List.map
            (fun n -> Mil.Get n)
            [ "occ_ctx"; "occ_term"; "occ_tf"; "len"; "dom"; "qlink"; "qval" ];
        meta = [ "lib" ];
      }
  in
  let a = analyze_one ~foreign:Extension.foreign_decl cat plan in
  let space = Index.space idx in
  let session =
    Mil.session
      ~foreign:(Extension.foreign_dispatch { Extension.space = (fun _ -> Some space) })
      cat
  in
  let actual = Bat.count (Mil.exec session plan) in
  Alcotest.(check int) "three rows" 3 actual;
  match (Milcheck.prop a plan).Milprop.card.Milprop.hi with
  | Some hi when hi < actual -> Alcotest.failf "declared hi %d below the %d actual rows" hi actual
  | _ -> ()

(* {1 mirror-lint/v2 over the example corpus} *)

let test_lint_v2_roundtrip () =
  Mirror_core.Bootstrap.ensure ();
  let st = Corpus.storage () in
  let report = Lintreport.sweep st Corpus.queries in
  Alcotest.(check int) "corpus passes all four layers" 0 report.Lintreport.failures;
  let doc =
    match Jsonx.parse (Jsonx.to_string (Lintreport.to_json report)) with
    | Ok v -> v
    | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  in
  Alcotest.(check (option string))
    "schema tag" (Some "mirror-lint/v2")
    (Option.bind (Jsonx.member "schema" doc) Jsonx.to_str);
  let layers =
    match Option.bind (Jsonx.member "layers" doc) Jsonx.to_list with
    | Some ls -> ls
    | None -> Alcotest.fail "v2 report lacks the layers array"
  in
  Alcotest.(check (list (option string)))
    "per-layer names"
    [ Some "moa"; Some "mil"; Some "eff"; Some "bound" ]
    (List.map (fun l -> Option.bind (Jsonx.member "name" l) Jsonx.to_str) layers);
  List.iter
    (fun l ->
      match Option.bind (Jsonx.member "schema" l) Jsonx.to_str with
      | Some s when String.length s > 0 -> ()
      | _ -> Alcotest.fail "layer entry lacks a schema tag")
    layers;
  let queries =
    match Option.bind (Jsonx.member "queries" doc) Jsonx.to_list with
    | Some qs -> qs
    | None -> Alcotest.fail "missing queries array"
  in
  Alcotest.(check int) "one entry per query" (List.length Corpus.queries)
    (List.length queries);
  List.iter
    (fun q ->
      (* the v1 fields survive unchanged... *)
      List.iter
        (fun field ->
          if Jsonx.member field q = None then Alcotest.failf "query entry lacks %S" field)
        [ "src"; "failed"; "error"; "nodes"; "partitions"; "shared_columns"; "diagnostics" ];
      (* ...and the bound summary is additive on top *)
      (match Option.bind (Jsonx.member "est_bytes" q) Jsonx.to_int with
      | Some b when b > 0 -> ()
      | _ -> Alcotest.fail "query entry lacks a positive est_bytes");
      (match Jsonx.member "peak_bytes" q with
      | Some _ -> ()
      | None -> Alcotest.fail "query entry lacks peak_bytes");
      match Option.bind (Jsonx.member "reclaim_bytes" q) Jsonx.to_int with
      | Some b when b >= 0 -> ()
      | _ -> Alcotest.fail "query entry lacks reclaim_bytes")
    queries

(* corpus-wide soundness spot check: est never exceeds the peak bound *)
let test_corpus_envelopes () =
  Mirror_core.Bootstrap.ensure ();
  let st = Corpus.storage () in
  let report = Lintreport.sweep st Corpus.queries in
  List.iter
    (fun (q : Lintreport.query) ->
      match q.Lintreport.peak_bytes with
      | Some peak ->
        if q.Lintreport.est_bytes > peak then
          Alcotest.failf "%s: est %d above peak %d" q.Lintreport.src q.Lintreport.est_bytes
            peak;
        if q.Lintreport.reclaim_bytes > peak then
          Alcotest.failf "%s: reclaim est %d above peak %d" q.Lintreport.src
            q.Lintreport.reclaim_bytes peak
      | None -> Alcotest.failf "%s: corpus query left unbounded" q.Lintreport.src)
    report.Lintreport.queries

let () =
  Alcotest.run "boundcheck"
    [
      ( "costs",
        [
          Alcotest.test_case "selectivity rules" `Quick test_selectivity;
          Alcotest.test_case "string payload tracking" `Quick test_string_payload;
        ] );
      ( "foreigns",
        [
          Alcotest.test_case "undeclared bound degrades to unbounded" `Quick
            test_foreign_unbounded;
          Alcotest.test_case "declared rule keeps the envelope" `Quick test_foreign_declared;
        ] );
      ( "liveness",
        [ Alcotest.test_case "diamond DAG reclaim peak" `Quick test_diamond_liveness ] );
      ( "admission",
        [
          Alcotest.test_case "accept, refuse, fail-closed" `Quick test_admission;
          Alcotest.test_case "per-root bounds from the bundle table" `Quick
            test_admission_per_root;
        ] );
      ( "getbl",
        [
          Alcotest.test_case "peak within 100x of actual at 64 docs" `Quick test_getbl_peak;
          Alcotest.test_case "row rule admits repeated qlink entries" `Quick
            test_getbl_rows_sound;
        ] );
      ( "report",
        [
          Alcotest.test_case "mirror-lint/v2 round-trip" `Quick test_lint_v2_roundtrip;
          Alcotest.test_case "corpus envelopes are consistent" `Quick test_corpus_envelopes;
        ] );
    ]
