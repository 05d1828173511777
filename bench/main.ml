(* The Mirror experiment harness.

   The VLDB'99 paper is a demo paper: its only figure is the
   architecture (figure 1) and it prints two example queries; it
   reports no quantitative tables.  This harness reproduces every
   artefact it does contain and turns each of its efficiency claims
   into a measured experiment — see EXPERIMENTS.md for the index.

     F1  figure 1 as an executable pipeline (per-daemon activity)
     Q1  the §3 ranking query, latency vs collection size
     Q2  the §5.2 dual-coded retrieval session
     E1  flattened set-at-a-time vs object-at-a-time evaluation
     E2  dedicated physical getBL vs belief composed from generic ops
     E3  integrated IR+DB query vs two-system post-filtering
     E4  algebraic optimisation and CSE ablations
     E5  component micro-benchmarks (bechamel)
     E6  retrieval quality: dual coding and relevance feedback
     RECOVERY  durable-store WAL replay throughput and recovery time

   Besides the printed tables, every experiment appends an entry to
   BENCH_core.json (schema documented in EXPERIMENTS.md) so later PRs
   can diff sizes, median latencies and per-operator rollups against
   this baseline.

   Run with:  dune exec bench/main.exe            (full suite)
              dune exec bench/main.exe -- quick   (smaller sizes) *)

module Prng = Mirror_util.Prng
module Tablefmt = Mirror_util.Tablefmt
module Json = Mirror_util.Jsonx
module Trace = Mirror_util.Trace
module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Parkernel = Mirror_bat.Parkernel
module Synth = Mirror_mm.Synth
module Segment = Mirror_mm.Segment
module Kmeans = Mirror_mm.Kmeans
module Autoclass = Mirror_mm.Autoclass
module Belief = Mirror_ir.Belief
module Porter = Mirror_ir.Porter
module Querynet = Mirror_ir.Querynet
module Space = Mirror_ir.Space
module Orchestrator = Mirror_daemon.Orchestrator
module Mirror = Mirror_core.Mirror
module Value = Mirror_core.Value
module Expr = Mirror_core.Expr
module Parser = Mirror_core.Parser
module Storage = Mirror_core.Storage
module Naive = Mirror_core.Naive
module Eval = Mirror_core.Eval
module Optimize = Mirror_core.Optimize
module Feedback = Mirror_core.Feedback

let quick = Array.exists (fun a -> a = "quick") Sys.argv

let ok = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("bench error: " ^ e);
    exit 1

let section title = Printf.printf "\n==== %s ====\n\n" title

(* Adaptive timing (CPU seconds; everything here is single threaded and
   compute bound).  Each run is timed individually and the *median* is
   reported — robust against GC pauses and scheduler noise, and the
   figure BENCH_core.json records for later PRs to diff. *)
let seconds_per_run f =
  ignore (f ());
  (* warm-up + single-shot estimate *)
  let t0 = Sys.time () in
  ignore (f ());
  let est = Float.max (Sys.time () -. t0) 1e-6 in
  let reps = max 5 (int_of_float (0.25 /. est)) in
  let times =
    Array.init reps (fun _ ->
        let t0 = Sys.time () in
        ignore (f ());
        Sys.time () -. t0)
  in
  Mirror_util.Stat.median times

let ms x = Tablefmt.cell_float ~prec:2 (1000.0 *. x)

(* {1 BENCH_core.json accumulation} *)

let json_entries : Json.t list ref = ref [] (* reversed *)

let record_entry id fields =
  json_entries := Json.Obj (("id", Json.Str id) :: fields) :: !json_entries

let json_ms s = Json.Float (1000.0 *. s)

(* One untimed, traced run of a query: the per-operator rollup of its
   execute spans ({!Eval.rollup}, the table explain analyze prints),
   with the executor's own counts so validate can check that the
   rollup adds up.  Timed runs stay untraced. *)
let rollup ?optimize st expr =
  let trace = Trace.create () in
  let r = ok (Eval.query ?optimize ~trace st expr) in
  Json.Obj
    [
      ("evaluated", Json.Int r.Eval.evaluated);
      ("memo_hits", Json.Int r.Eval.memo_hits);
      ( "operators",
        Json.Arr
          (List.map
             (fun (op, (a : Trace.agg)) ->
               Json.Obj
                 [
                   ("op", Json.Str op);
                   ("calls", Json.Int a.Trace.calls);
                   ("memo_hits", Json.Int a.Trace.flagged);
                   ("rows", Json.Int a.Trace.rows);
                   ("total_ms", json_ms a.Trace.total);
                   ("self_ms", json_ms a.Trace.self);
                 ])
             (Eval.rollup trace)) );
    ]

let write_bench_json () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "mirror-bench-core/v2");
        ("mode", Json.Str (if quick then "quick" else "full"));
        ("experiments", Json.Arr (List.rev !json_entries));
      ]
  in
  let oc = open_out "BENCH_core.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_core.json (%d experiment entries)\n"
    (List.length !json_entries)

(* {1 Synthetic text collections (paper-shaped TraditionalImgLib)} *)

let vocab_size = 150

let zipf_word g =
  let weights = Array.init vocab_size (fun i -> 1.0 /. Float.of_int (i + 1)) in
  Printf.sprintf "w%d" (Prng.sample_weighted g weights)

let text_rows g ~n =
  List.init n (fun i ->
      let words = List.init (10 + Prng.int g 20) (fun _ -> zipf_word g) in
      Value.Tup
        [
          ("source", Value.str (Printf.sprintf "img://%d" i));
          ("year", Value.int (1990 + Prng.int g 12));
          ("annotation", Value.contrep (Mirror_ir.Tokenize.bag_of_words words));
        ])

let docs_schema =
  "define Docs as SET< TUPLE< Atomic<URL>: source, Atomic<int>: year, CONTREP<Text>: \
   annotation > >;"

let make_docs ~n =
  let m = Mirror.create () in
  ignore (ok (Mirror.exec_program m docs_schema));
  ignore (ok (Mirror.load m ~name:"Docs" (text_rows (Prng.create (77 + n)) ~n)));
  m

let query_terms = [ "w5"; "w12" ]
let bindings = [ ("query", Expr.lit_str_set query_terms) ]

(* {1 Static vetting of the benchmark workloads}

   Before timing anything, push every query string the experiments use
   through the MIL plan verifier and the differential checker
   ({!Mirror_core.Plancheck.vet}) — a malformed workload should fail
   loudly up front, not benchmark garbage. *)

let docs_workload =
  [
    "map[sum(THIS)]( map[getBL(THIS.annotation, query, stats)]( Docs ))";
    "map[sum(getBL(THIS.annotation, query, stats))](Docs)";
    "sum(map[THIS.year](select[THIS.year < 1996](Docs)))";
    "max(map[THIS.year * 3 - 2](Docs))";
    "count(flatten(map[terms(THIS.annotation)](Docs)))";
    "count(semijoin[THIS1.year = THIS2.year + 11](Docs, Docs))";
  ]

let vet_workloads () =
  let m = make_docs ~n:16 in
  let st = Mirror.storage m in
  let vetted =
    List.map
      (fun src ->
        match Mirror_core.Plancheck.vet st (ok (Parser.parse_expr ~bindings src)) with
        | Ok v -> v
        | Error e ->
          Printf.printf "workload vetting FAILED:\n  %s\n    %s\n" src e;
          exit 1)
      docs_workload
  in
  (* what the analyses covered, summed over the workload *)
  let sum f = List.fold_left (fun acc (v : Mirror_core.Plancheck.vetted) -> acc + f v) 0 vetted in
  let envelope_checks = sum (fun v -> v.envelope_checks) in
  Printf.printf
    "workloads vetted: %d queries pass both analysis layers (%d flattenings validated, %d \
     envelopes checked)\n"
    (List.length docs_workload) (List.length vetted) envelope_checks;
  record_entry "VET"
    [
      ("queries", Json.Int (List.length docs_workload));
      ("envelope_checks", Json.Int envelope_checks);
      ("plans", Json.Int (sum (fun v -> v.plans)));
      ("nodes", Json.Int (sum (fun v -> v.verdict.nodes)));
      ("partitions", Json.Int (sum (fun v -> v.verdict.partitions)));
      ("hazards", Json.Int (sum (fun v -> List.length v.verdict.hazards)));
    ]

(* {1 F1: the figure-1 pipeline} *)

let experiment_f1 () =
  section "F1: the distributed architecture of figure 1, executed";
  let n = if quick then 8 else 16 in
  let scenes = Synth.corpus (Prng.create 11) ~n ~width:48 ~height:48 () in
  let m = Mirror.create () in
  let t0 = Sys.time () in
  let report = ok (Mirror.build_image_library m ~scenes ()) in
  let elapsed = Sys.time () -. t0 in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf "daemon activity over %d images (total %.2f s, %.1f images/s)" n
           elapsed
           (Float.of_int n /. Float.max elapsed 1e-9))
      [
        ("daemon", Tablefmt.Left);
        ("handled", Tablefmt.Right);
        ("produced", Tablefmt.Right);
        ("failures", Tablefmt.Right);
        ("cpu (s)", Tablefmt.Right);
      ]
  in
  List.iter
    (fun s ->
      Tablefmt.add_row t
        [
          s.Orchestrator.name;
          Tablefmt.cell_int s.Orchestrator.handled;
          Tablefmt.cell_int s.Orchestrator.produced;
          Tablefmt.cell_int s.Orchestrator.failures;
          Tablefmt.cell_float s.Orchestrator.cpu_seconds;
        ])
    report.Orchestrator.stats;
  Tablefmt.print t;
  Printf.printf "pipeline rounds: %d, dead letters: %d, library size: %d\n"
    report.Orchestrator.rounds
    (List.length report.Orchestrator.dead_letters)
    (Mirror.library_size m);
  record_entry "F1"
    [
      ("images", Json.Int n);
      ("seconds", Json.Float elapsed);
      ("rounds", Json.Int report.Orchestrator.rounds);
      ("dead_letters", Json.Int (List.length report.Orchestrator.dead_letters));
      ( "daemons",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.Orchestrator.name);
                   ("handled", Json.Int s.Orchestrator.handled);
                   ("produced", Json.Int s.Orchestrator.produced);
                   ("failures", Json.Int s.Orchestrator.failures);
                   ("cpu_seconds", Json.Float s.Orchestrator.cpu_seconds);
                 ])
             report.Orchestrator.stats) );
    ]

(* {1 Q1: the section-3 query, latency vs collection size} *)

let experiment_q1 () =
  section "Q1: map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib))";
  let sizes = if quick then [ 100; 400 ] else [ 100; 400; 1600; 6400 ] in
  let t =
    Tablefmt.create ~title:"latency of the paper's ranking query (2 query terms)"
      [
        ("documents", Tablefmt.Right);
        ("ms/query", Tablefmt.Right);
        ("us/query/doc", Tablefmt.Right);
      ]
  in
  let rows = ref [] in
  let last_rollup = ref Json.Null in
  List.iter
    (fun n ->
      let m = make_docs ~n in
      let expr =
        ok
          (Parser.parse_expr ~bindings
             "map[sum(THIS)]( map[getBL(THIS.annotation, query, stats)]( Docs ))")
      in
      let st = Mirror.storage m in
      let s = seconds_per_run (fun () -> ok (Eval.query_value st expr)) in
      last_rollup := rollup st expr;
      rows :=
        Json.Obj
          [
            ("documents", Json.Int n);
            ("median_ms", json_ms s);
            ("us_per_doc", Json.Float (1e6 *. s /. Float.of_int n));
          ]
        :: !rows;
      Tablefmt.add_row t
        [
          Tablefmt.cell_int n;
          ms s;
          Tablefmt.cell_float ~prec:2 (1e6 *. s /. Float.of_int n);
        ])
    sizes;
  Tablefmt.print t;
  record_entry "Q1"
    [
      ("sizes", Json.Arr (List.map (fun n -> Json.Int n) sizes));
      ("rows", Json.Arr (List.rev !rows));
      ("rollup", !last_rollup);
    ];
  print_endline "expected shape: latency grows ~linearly; per-document cost roughly flat."

(* {1 E1: set-at-a-time vs object-at-a-time} *)

let experiment_e1 () =
  section "E1: flattened (set-at-a-time) vs naive (object-at-a-time) evaluation";
  let sizes = if quick then [ 100; 400 ] else [ 100; 400; 1600 ] in
  let queries =
    [
      ("rank", "map[sum(getBL(THIS.annotation, query, stats))](Docs)");
      ("filter+aggregate", "sum(map[THIS.year](select[THIS.year < 1996](Docs)))");
      ("arithmetic map", "max(map[THIS.year * 3 - 2](Docs))");
      ("terms scan", "count(flatten(map[terms(THIS.annotation)](Docs)))");
      ("equi semijoin", "count(semijoin[THIS1.year = THIS2.year + 11](Docs, Docs))");
    ]
  in
  let t =
    Tablefmt.create ~title:"query latency (ms); speedup = naive / flattened"
      [
        ("query", Tablefmt.Left);
        ("documents", Tablefmt.Right);
        ("naive", Tablefmt.Right);
        ("flattened", Tablefmt.Right);
        ("speedup", Tablefmt.Right);
      ]
  in
  let rows = ref [] in
  let last_rollup = ref Json.Null in
  List.iter
    (fun n ->
      let m = make_docs ~n in
      let st = Mirror.storage m in
      List.iter
        (fun (label, src) ->
          let expr = ok (Parser.parse_expr ~bindings src) in
          let nv = Naive.eval st expr and fv = ok (Eval.query_value st expr) in
          if not (Value.equal nv fv) then begin
            Printf.printf "!! evaluators disagree on %s\n" label;
            exit 1
          end;
          let t_naive = seconds_per_run (fun () -> Naive.eval st expr) in
          let t_flat = seconds_per_run (fun () -> ok (Eval.query_value st expr)) in
          if label = "rank" then last_rollup := rollup st expr;
          rows :=
            Json.Obj
              [
                ("query", Json.Str label);
                ("documents", Json.Int n);
                ("naive_ms", json_ms t_naive);
                ("flattened_ms", json_ms t_flat);
                ("speedup", Json.Float (t_naive /. t_flat));
              ]
            :: !rows;
          Tablefmt.add_row t
            [
              label;
              Tablefmt.cell_int n;
              ms t_naive;
              ms t_flat;
              Tablefmt.cell_float ~prec:1 (t_naive /. t_flat) ^ "x";
            ])
        queries)
    sizes;
  Tablefmt.print t;
  record_entry "E1"
    [
      ("sizes", Json.Arr (List.map (fun n -> Json.Int n) sizes));
      ("rows", Json.Arr (List.rev !rows));
      ("rollup", !last_rollup);
    ];
  print_endline
    "expected shape: the flattened plans win, and the factor grows with collection\n\
     size — most dramatically on joins, where set-at-a-time execution uses whole-\n\
     column algorithms instead of per-object loops ([BWK98]: \"allows often for\n\
     set-at-a-time processing\")."

(* {1 E2: dedicated physical operator vs composed generic plan} *)

let experiment_e2 () =
  section "E2: physical getBL operator vs belief composed from generic operators";
  let sizes = if quick then [ 200 ] else [ 200; 800 ] in
  let rows = ref [] in
  let last_rollup = ref Json.Null in
  let t =
    Tablefmt.create
      ~title:"single-term belief over the whole collection (ms); results identical"
      [
        ("documents", Tablefmt.Right);
        ("physical getBL", Tablefmt.Right);
        ("composed tf/clen plan", Tablefmt.Right);
        ("ratio", Tablefmt.Right);
        ("max |diff|", Tablefmt.Right);
      ]
  in
  List.iter
    (fun n ->
      let m = make_docs ~n in
      let st = Mirror.storage m in
      let sp = Option.get (Storage.space_find st "Docs#el/annotation") in
      let term = "w5" in
      let df = Space.df sp (Option.get (Mirror_ir.Vocab.find (Space.vocab sp) term)) in
      let ndocs = Space.ndocs sp in
      let idf = Belief.idf_part ~df ~ndocs in
      let avg = Space.avg_doc_len sp in
      let physical =
        ok
          (Parser.parse_expr
             (Printf.sprintf "map[sum(getBL(THIS.annotation, {'%s'}))](Docs)" term))
      in
      let composed =
        ok
          (Parser.parse_expr
             (Printf.sprintf
                "map[0.4 + 0.6 * (tf(THIS.annotation,'%s') / (tf(THIS.annotation,'%s') + 0.5 \
                 + 1.5 * (clen(THIS.annotation) / %.12g))) * %.12g](Docs)"
                term term avg idf))
      in
      let vp = ok (Eval.query_value st physical) in
      let vc = ok (Eval.query_value st composed) in
      let scores v =
        List.map (fun x -> Atom.as_float (Value.as_atom x)) (Value.as_set v)
        |> List.sort Float.compare
      in
      let max_diff =
        List.fold_left2
          (fun acc a b -> Float.max acc (Float.abs (a -. b)))
          0.0 (scores vp) (scores vc)
      in
      let t_phys = seconds_per_run (fun () -> ok (Eval.query_value st physical)) in
      let t_comp = seconds_per_run (fun () -> ok (Eval.query_value st composed)) in
      last_rollup := rollup st physical;
      rows :=
        Json.Obj
          [
            ("documents", Json.Int n);
            ("physical_ms", json_ms t_phys);
            ("composed_ms", json_ms t_comp);
            ("ratio", Json.Float (t_comp /. t_phys));
            ("max_abs_diff", Json.Float max_diff);
          ]
        :: !rows;
      Tablefmt.add_row t
        [
          Tablefmt.cell_int n;
          ms t_phys;
          ms t_comp;
          Tablefmt.cell_float ~prec:1 (t_comp /. t_phys) ^ "x";
          Printf.sprintf "%.1e" max_diff;
        ])
    sizes;
  Tablefmt.print t;
  record_entry "E2"
    [
      ("sizes", Json.Arr (List.map (fun n -> Json.Int n) sizes));
      ("rows", Json.Arr (List.rev !rows));
      ("rollup", !last_rollup);
    ];
  print_endline
    "expected shape: the dedicated probabilistic operator beats the equivalent\n\
     composition of generic operators (\"new probabilistic operators at the physical\n\
     level provide an efficient implementation\")."

(* {1 E3: integrated IR+DB query vs two-system post-filtering} *)

let experiment_e3 () =
  section "E3: one integrated query vs IR system + DB system post-filter";
  let sizes = if quick then [ 200 ] else [ 200; 800 ] in
  let rows = ref [] in
  let t =
    Tablefmt.create ~title:"rank only years < 1996 (ms)"
      [
        ("documents", Tablefmt.Right);
        ("selectivity", Tablefmt.Right);
        ("integrated", Tablefmt.Right);
        ("two-system", Tablefmt.Right);
        ("ratio", Tablefmt.Right);
      ]
  in
  List.iter
    (fun n ->
      let m = make_docs ~n in
      let st = Mirror.storage m in
      let integrated =
        ok
          (Parser.parse_expr ~bindings
             "map[tuple(s: THIS.source, score: sum(getBL(THIS.annotation, query, \
              stats)))](select[THIS.year < 1996](Docs))")
      in
      (* "two systems": the IR engine ranks everything, the DB returns
         the year column, the application glues them. *)
      let rank_all =
        ok
          (Parser.parse_expr ~bindings
             "map[tuple(s: THIS.source, score: sum(getBL(THIS.annotation, query, \
              stats)))](Docs)")
      in
      let years = ok (Parser.parse_expr "map[tuple(s: THIS.source, y: THIS.year)](Docs)") in
      let two_system () =
        let ranked = ok (Eval.query_value st rank_all) in
        let year_rows = ok (Eval.query_value st years) in
        let year_of = Hashtbl.create 64 in
        List.iter
          (fun row ->
            Hashtbl.replace year_of
              (Atom.as_string (Value.as_atom (Value.field_exn row "s")))
              (Atom.as_int (Value.as_atom (Value.field_exn row "y"))))
          (Value.as_set year_rows);
        List.filter
          (fun row ->
            match
              Hashtbl.find_opt year_of
                (Atom.as_string (Value.as_atom (Value.field_exn row "s")))
            with
            | Some y -> y < 1996
            | None -> false)
          (Value.as_set ranked)
      in
      let integrated_rows = Value.as_set (ok (Eval.query_value st integrated)) in
      let sel = Float.of_int (List.length integrated_rows) /. Float.of_int n in
      if not (Value.equal (Value.VSet integrated_rows) (Value.VSet (two_system ()))) then begin
        print_endline "!! integrated and two-system results disagree";
        exit 1
      end;
      let t_int = seconds_per_run (fun () -> ok (Eval.query_value st integrated)) in
      let t_two = seconds_per_run (fun () -> two_system ()) in
      rows :=
        Json.Obj
          [
            ("documents", Json.Int n);
            ("selectivity", Json.Float sel);
            ("integrated_ms", json_ms t_int);
            ("two_system_ms", json_ms t_two);
            ("ratio", Json.Float (t_two /. t_int));
          ]
        :: !rows;
      Tablefmt.add_row t
        [
          Tablefmt.cell_int n;
          Tablefmt.cell_float ~prec:2 sel;
          ms t_int;
          ms t_two;
          Tablefmt.cell_float ~prec:1 (t_two /. t_int) ^ "x";
        ])
    sizes;
  Tablefmt.print t;
  record_entry "E3"
    [
      ("sizes", Json.Arr (List.map (fun n -> Json.Int n) sizes));
      ("rows", Json.Arr (List.rev !rows));
    ];
  print_endline
    "expected shape: pushing the relational selection below ranking beats ranking\n\
     everything and post-filtering (\"an efficient integration of information and\n\
     data retrieval\")."

(* {1 E4: optimisation ablations} *)

let experiment_e4 () =
  section "E4: algebraic rewriting and common-subexpression elimination";
  let n = if quick then 2000 else 8000 in
  let m = Mirror.create () in
  ignore
    (ok
       (Mirror.exec_program m "define Nums as SET< TUPLE< Atomic<int>: a, Atomic<int>: b > >;"));
  let g = Prng.create 5 in
  ignore
    (ok
       (Mirror.load m ~name:"Nums"
          (List.init n (fun _ ->
               Value.Tup
                 [ ("a", Value.int (Prng.int g 100)); ("b", Value.int (Prng.int g 100)) ]))));
  let st = Mirror.storage m in
  let fusable =
    ok
      (Parser.parse_expr
         "map[THIS + 1](map[THIS * 2](map[THIS.a + THIS.b](select[THIS.a > 10](select[THIS.b \
          > 10](Nums)))))")
  in
  let t =
    Tablefmt.create ~title:(Printf.sprintf "rewriting (map/select chains over %d rows)" n)
      [
        ("configuration", Tablefmt.Left);
        ("plan nodes", Tablefmt.Right);
        ("ops evaluated", Tablefmt.Right);
        ("ms/query", Tablefmt.Right);
      ]
  in
  let rewrite_rows = ref [] in
  let optimised_s = ref 0.0 in
  let row label ~optimize ~cse expr =
    let report = ok (Eval.query ~optimize ~cse st expr) in
    let s = seconds_per_run (fun () -> ok (Eval.query ~optimize ~cse st expr)) in
    if optimize then optimised_s := s;
    rewrite_rows :=
      Json.Obj
        [
          ("configuration", Json.Str label);
          ("plan_nodes", Json.Int report.Eval.plan_nodes);
          ("ops_evaluated", Json.Int report.Eval.evaluated);
          ("median_ms", json_ms s);
        ]
      :: !rewrite_rows;
    Tablefmt.add_row t
      [ label; Tablefmt.cell_int report.Eval.plan_nodes; Tablefmt.cell_int report.Eval.evaluated; ms s ]
  in
  row "unoptimised" ~optimize:false ~cse:true fusable;
  row "optimised (fusion + pushdown)" ~optimize:true ~cse:true fusable;
  let _, trace = Optimize.rewrite_trace fusable in
  Tablefmt.add_rowf t "rules fired: %s" (String.concat ", " trace);
  Tablefmt.print t;

  (* tracing-overhead ablation: the default (Trace.null) path must cost
     the same as before the observability layer existed — the span code
     is behind a single is_on branch — while an enabled trace pays for
     one span per executed operator. *)
  let t_off =
    seconds_per_run (fun () -> ok (Eval.query ~optimize:true ~cse:true st fusable))
  in
  let t_on =
    seconds_per_run (fun () ->
        ok (Eval.query ~optimize:true ~cse:true ~trace:(Trace.create ()) st fusable))
  in
  let ta =
    Tablefmt.create ~title:"tracing-overhead ablation (optimised plan)"
      [ ("configuration", Tablefmt.Left); ("ms/query", Tablefmt.Right) ]
  in
  Tablefmt.add_row ta [ "tracing disabled (default)"; ms t_off ];
  Tablefmt.add_row ta [ "tracing enabled"; ms t_on ];
  Tablefmt.add_rowf ta "enabled/disabled ratio: %.2f" (t_on /. Float.max t_off 1e-9);
  Tablefmt.print ta;

  (* the equi-join physical specialisation *)
  let njoin = if quick then 400 else 1200 in
  let mj = Mirror.create () in
  ignore
    (ok (Mirror.exec_program mj "define J as SET< TUPLE< Atomic<int>: k, Atomic<int>: v > >;"));
  let gj = Prng.create 9 in
  ignore
    (ok
       (Mirror.load mj ~name:"J"
          (List.init njoin (fun _ ->
               Value.Tup
                 [ ("k", Value.int (Prng.int gj 50)); ("v", Value.int (Prng.int gj 1000)) ]))));
  let stj = Mirror.storage mj in
  let joinq = ok (Parser.parse_expr "count(semijoin[THIS1.k = THIS2.v](J, J))") in
  let tj =
    Tablefmt.create
      ~title:(Printf.sprintf "equi-join specialisation (self semijoin over %d rows)" njoin)
      [ ("configuration", Tablefmt.Left); ("ms/query", Tablefmt.Right) ]
  in
  let join_rows = ref [] in
  List.iter
    (fun (label, specialize) ->
      let s =
        seconds_per_run (fun () -> ok (Eval.query ~optimize:false ~specialize stj joinq))
      in
      join_rows :=
        Json.Obj [ ("configuration", Json.Str label); ("median_ms", json_ms s) ] :: !join_rows;
      Tablefmt.add_row tj [ label; ms s ])
    [ ("hash semijoin on the keys", true); ("cross product + filter", false) ];
  Tablefmt.print tj;

  let mdocs = make_docs ~n:(if quick then 150 else 400) in
  let std = Mirror.storage mdocs in
  let repeated =
    ok
      (Parser.parse_expr ~bindings
         "map[sum(getBL(THIS.annotation, query, stats)) + sum(getBL(THIS.annotation, query, \
          stats))](Docs)")
  in
  let t2 =
    Tablefmt.create ~title:"CSE on a query with a repeated getBL subexpression"
      [
        ("configuration", Tablefmt.Left);
        ("ops evaluated", Tablefmt.Right);
        ("memo hits", Tablefmt.Right);
        ("ms/query", Tablefmt.Right);
      ]
  in
  let cse_rows = ref [] in
  List.iter
    (fun (label, cse) ->
      let report = ok (Eval.query ~optimize:false ~cse std repeated) in
      let s = seconds_per_run (fun () -> ok (Eval.query ~optimize:false ~cse std repeated)) in
      cse_rows :=
        Json.Obj
          [
            ("configuration", Json.Str label);
            ("ops_evaluated", Json.Int report.Eval.evaluated);
            ("memo_hits", Json.Int report.Eval.memo_hits);
            ("median_ms", json_ms s);
          ]
        :: !cse_rows;
      Tablefmt.add_row t2
        [
          label;
          Tablefmt.cell_int report.Eval.evaluated;
          Tablefmt.cell_int report.Eval.memo_hits;
          ms s;
        ])
    [ ("with CSE (memo table)", true); ("without CSE", false) ];
  Tablefmt.print t2;
  record_entry "E4"
    [
      ("sizes", Json.Arr [ Json.Int n; Json.Int njoin ]);
      ("rows", Json.Arr (List.rev !rewrite_rows));
      ("rules_fired", Json.Arr (List.map (fun r -> Json.Str r) trace));
      ( "trace_ablation",
        Json.Obj
          [
            ("baseline_ms", json_ms !optimised_s);
            ("trace_off_ms", json_ms t_off);
            ("trace_on_ms", json_ms t_on);
            ("off_over_baseline", Json.Float (t_off /. Float.max !optimised_s 1e-9));
            ("on_over_off", Json.Float (t_on /. Float.max t_off 1e-9));
          ] );
      ("join_rows", Json.Arr (List.rev !join_rows));
      ("cse_rows", Json.Arr (List.rev !cse_rows));
      ("rollup", rollup ~optimize:false std repeated);
    ];
  print_endline
    "expected shape: optimised plans are smaller and faster; CSE halves the work of\n\
     the duplicated ranking subplan (\"an excellent basis for algebraic query\n\
     optimization\")."

(* {1 E5: component micro-benchmarks (bechamel)} *)

let bechamel_rows tests =
  let open Bechamel in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (if quick then 0.1 else 0.25))
      ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let res = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan in
      (name, est) :: acc)
    res []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let experiment_e5 () =
  section "E5: component micro-benchmarks (bechamel OLS estimates)";
  let open Bechamel in
  let g = Prng.create 99 in
  let big_bat =
    Bat.make (Column.dense 0 10_000)
      (Column.I (Array.init 10_000 (fun i -> i * 7919 mod 1000)))
  in
  let link_bat =
    Bat.make (Column.dense 0 10_000) (Column.O (Array.init 10_000 (fun i -> i mod 100)))
  in
  let image = Synth.render_texture (Prng.create 3) ~width:48 ~height:48 Synth.Stripes 0 in
  let region = { Segment.x = 0; y = 0; w = 32; h = 32 } in
  let pts =
    Array.init 100 (fun i ->
        if i mod 2 = 0 then Prng.gaussian_mv g ~mean:[| 0.; 0. |] ~sigma:[| 0.4; 0.4 |]
        else Prng.gaussian_mv g ~mean:[| 3.; 3. |] ~sigma:[| 0.4; 0.4 |])
  in
  let mdocs = make_docs ~n:200 in
  let st = Mirror.storage mdocs in
  let rank_src = "map[sum(getBL(THIS.annotation, query, stats))](Docs)" in
  let rank_expr = ok (Parser.parse_expr ~bindings rank_src) in
  let net = Querynet.flat query_terms in
  let tests =
    Test.make_grouped ~name:"e5"
      [
        Test.make ~name:"bat: join 10k"
          (Staged.stage (fun () -> Bat.join link_bat big_bat));
        Test.make ~name:"bat: select eq 10k"
          (Staged.stage (fun () -> Bat.select_cmp big_bat Bat.Eq (Atom.Int 500)));
        Test.make ~name:"bat: group-sum 10k/100"
          (Staged.stage (fun () ->
               Bat.group_aggr Bat.Sum (Bat.join (Bat.reverse link_bat) big_bat)));
        Test.make ~name:"bat: sort 10k" (Staged.stage (fun () -> Bat.sort_tail big_bat));
        Test.make ~name:"ir: default belief"
          (Staged.stage (fun () ->
               Belief.belief ~tf:3.0 ~df:7 ~ndocs:1000 ~doclen:20.0 ~avg_doclen:18.0));
        Test.make ~name:"ir: porter stem" (Staged.stage (fun () -> Porter.stem "multimedia"));
        Test.make ~name:"ir: querynet eval"
          (Staged.stage (fun () -> Querynet.eval (fun _ -> 0.5) net));
        Test.make ~name:"mm: segmentation 48x48"
          (Staged.stage (fun () -> Segment.segment_flat image));
        Test.make ~name:"mm: rgb histogram 32x32"
          (Staged.stage (fun () -> Mirror_mm.Histogram.rgb image region));
        Test.make ~name:"mm: glcm 32x32"
          (Staged.stage (fun () -> Mirror_mm.Glcm.extract image region));
        Test.make ~name:"mm: mrf 32x32"
          (Staged.stage (fun () -> Mirror_mm.Mrf.extract image region));
        Test.make ~name:"mm: fractal 32x32"
          (Staged.stage (fun () -> Mirror_mm.Fractal.extract image region));
        Test.make ~name:"mm: gabor 32x32"
          (Staged.stage (fun () -> Mirror_mm.Gabor.extract image region));
        Test.make ~name:"mm: kmeans k=2 n=100"
          (Staged.stage (fun () -> Kmeans.run (Prng.create 1) ~k:2 pts));
        Test.make ~name:"mm: EM fit k=2 n=100"
          (Staged.stage (fun () ->
               Autoclass.fit (Prng.create 1) ~k:2 ~restarts:1 ~max_iter:20 pts));
        Test.make ~name:"bat: merge semijoin 10k"
          (Staged.stage
             (let sorted_l =
                Bat.make (Column.dense 0 10_000) (Column.O (Array.init 10_000 (fun i -> i)))
              in
              let sorted_r =
                Bat.make (Column.O (Array.init 3_000 (fun i -> i * 3))) (Column.dense 0 3_000)
              in
              fun () -> Bat.semijoin sorted_l sorted_r));
        Test.make ~name:"moa: parse rank query"
          (Staged.stage (fun () -> ok (Parser.parse_expr ~bindings rank_src)));
        Test.make ~name:"moa: exec rank query (200 docs)"
          (Staged.stage (fun () -> ok (Eval.query_value st rank_expr)));
      ]
  in
  let rows = bechamel_rows tests in
  let t =
    Tablefmt.create
      [ ("benchmark", Tablefmt.Left); ("ns/op", Tablefmt.Right); ("us/op", Tablefmt.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      Tablefmt.add_row t
        [ name; Printf.sprintf "%.0f" ns; Tablefmt.cell_float ~prec:2 (ns /. 1000.0) ])
    rows;
  Tablefmt.print t;
  record_entry "E5"
    [
      ( "rows",
        Json.Arr
          (List.map
             (fun (name, ns) ->
               Json.Obj [ ("benchmark", Json.Str name); ("ns_per_op", Json.Float ns) ])
             rows) );
      ("rollup", rollup st rank_expr);
    ]

(* {1 Q2 + E6: the retrieval session and its quality} *)

let doc_index url =
  match String.rindex_opt url '/' with
  | Some i -> int_of_string (String.sub url (i + 1) (String.length url - i - 1))
  | None -> -1

let experiment_q2_e6 () =
  section "Q2: the section-5.2 retrieval session";
  let n = if quick then 16 else 30 in
  let scenes =
    Synth.corpus (Prng.create 2025) ~n ~width:48 ~height:48 ~annotated_fraction:0.7 ()
  in
  let m = Mirror.create () in
  ignore (ok (Mirror.build_image_library m ~scenes ()));
  let show query =
    let hits = ok (Mirror.search m ~limit:5 ~mode:Mirror.Dual query) in
    Printf.printf "query %-9S -> " query;
    List.iter
      (fun (url, s) ->
        let star =
          if Synth.relevant scenes.(doc_index url) ~query_words:[ query ] then "*" else ""
        in
        Printf.printf "%s%s(%.3f) " url star s)
      hits;
    print_newline ()
  in
  show "stripes";
  show "waves";
  show "red";
  print_endline "(* marks ground-truth-relevant images)";

  section "E6: retrieval quality — dual coding and relevance feedback";
  let queries = List.map Synth.class_name Synth.all_classes @ [ "red"; "blue"; "green" ] in
  let relevant_for q url = Synth.relevant scenes.(doc_index url) ~query_words:[ q ] in
  let quality mode =
    let ap_list, p5_list =
      List.fold_left
        (fun (aps, p5s) q ->
          match Mirror.search m ~limit:n ~mode q with
          | Error _ -> (aps, p5s)
          | Ok hits ->
            let ranked = List.map fst hits in
            let rel = relevant_for q in
            ( Feedback.average_precision ~ranked ~relevant:rel :: aps,
              Feedback.precision_at 5 ~ranked ~relevant:rel :: p5s ))
        ([], []) queries
    in
    let mean xs = List.fold_left ( +. ) 0.0 xs /. Float.of_int (max 1 (List.length xs)) in
    (mean ap_list, mean p5_list)
  in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "mean over %d queries, %d images" (List.length queries) n)
      [ ("mode", Tablefmt.Left); ("MAP", Tablefmt.Right); ("P@5", Tablefmt.Right) ]
  in
  List.iter
    (fun (label, mode) ->
      let map_, p5 = quality mode in
      Tablefmt.add_row t [ label; Tablefmt.cell_float map_; Tablefmt.cell_float p5 ])
    [
      ("text-only", Mirror.Text_only);
      ("image-only (thesaurus)", Mirror.Image_only);
      ("dual coding", Mirror.Dual);
    ];
  Tablefmt.print t;

  (* thesaurus quality: does a texture word map to texture-space
     clusters and a colour word to colour-space clusters? *)
  let texture_spaces = [ "gabor"; "glcm"; "mrf"; "fractal" ] in
  let colour_spaces = [ "rgb"; "hsv" ] in
  let modality_match expected_spaces qs =
    let hits =
      List.filter
        (fun q ->
          let concepts = List.filteri (fun i _ -> i < 3) (Mirror.thesaurus_lookup m q) in
          List.exists
            (fun (c, _) ->
              match Mirror_mm.Vocabmap.parse_term c with
              | Some (space, _) -> List.mem space expected_spaces
              | None -> false)
            concepts)
        qs
    in
    Float.of_int (List.length hits) /. Float.of_int (max 1 (List.length qs))
  in
  let t15 =
    Tablefmt.create ~title:"thesaurus modality match (top-3 concepts)"
      [ ("query kind", Tablefmt.Left); ("match rate", Tablefmt.Right) ]
  in
  Tablefmt.add_row t15
    [
      "texture words -> texture clusters";
      Tablefmt.cell_float
        (modality_match texture_spaces (List.map Synth.class_name Synth.all_classes));
    ];
  Tablefmt.add_row t15
    [
      "colour words -> colour clusters";
      Tablefmt.cell_float (modality_match colour_spaces [ "red"; "blue"; "green" ]);
    ];
  Tablefmt.print t15;

  let t2 =
    Tablefmt.create ~title:"relevance feedback (dual mode), thesaurus adaptation"
      [ ("round", Tablefmt.Right); ("mean P@5", Tablefmt.Right) ]
  in
  let p5_round round =
    let p5s =
      List.filter_map
        (fun q ->
          match Mirror.search m ~limit:8 ~mode:Mirror.Dual q with
          | Error _ -> None
          | Ok hits ->
            let judgements = List.map (fun (url, _) -> (url, relevant_for q url)) hits in
            Mirror.give_feedback m ~query:q ~judgements;
            Some
              (Feedback.precision_at 5 ~ranked:(List.map fst hits)
                 ~relevant:(relevant_for q)))
        queries
    in
    Tablefmt.add_row t2
      [
        Tablefmt.cell_int round;
        Tablefmt.cell_float
          (List.fold_left ( +. ) 0.0 p5s /. Float.of_int (max 1 (List.length p5s)));
      ]
  in
  List.iter p5_round [ 1; 2; 3 ];
  Tablefmt.print t2;
  record_entry "E6"
    [
      ("images", Json.Int n);
      ("queries", Json.Int (List.length queries));
      ( "modes",
        Json.Arr
          (List.map
             (fun (label, mode) ->
               let map_, p5 = quality mode in
               Json.Obj
                 [
                   ("mode", Json.Str label);
                   ("map", Json.Float map_);
                   ("p_at_5", Json.Float p5);
                 ])
             [
               ("text-only", Mirror.Text_only);
               ("image-only", Mirror.Image_only);
               ("dual", Mirror.Dual);
             ]) );
    ];
  print_endline
    "expected shape: dual coding >= the better single coding on average;\n\
     P@5 non-decreasing over feedback rounds."

(* {1 RECOVERY: durable-store crash recovery} *)

module Durable = Mirror_store.Durable

(* Build a durable store whose log holds [records] updates spread over
   [extents] extents (a Replace record's size grows with its extent, so
   spreading keeps record sizes realistic), abandon it uncheckpointed —
   as a crash would — and measure reopening it: log replay throughput
   and end-to-end recovery wall time, both recorded in BENCH_core.json
   so later PRs can diff them. *)
let experiment_recovery () =
  section "RECOVERY: WAL replay throughput and crash-recovery wall time";
  let records = if quick then 300 else 2000 in
  let extents = 32 in
  let dir = Filename.temp_file "mirror-bench-recovery" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> Mirror_util.Fsx.rm_rf dir) @@ fun () ->
  (match Durable.open_ ~dir () with
  | Error e -> ok (Error e)
  | Ok (t, _) ->
    let m = Durable.mirror t in
    for i = 0 to extents - 1 do
      ignore
        (ok
           (Mirror.exec_program m
              (Printf.sprintf "define B%d as SET< TUPLE< Atomic<int>: a > >;" i)))
    done;
    ignore (ok (Durable.checkpoint t));
    let g = Prng.create 23 in
    for i = 0 to records - 1 do
      ignore
        (ok
           (Mirror.exec_program m
              (Printf.sprintf "insert into B%d tuple(a: %d);" (i mod extents)
                 (Prng.int g 1000))))
    done;
    Durable.abandon t);
  let status = ok (Durable.inspect ~dir) |> fst in
  let log_bytes = status.Durable.log_bytes in
  let t0 = Trace.now () in
  let t2, r = ok (Durable.open_ ~dir ()) in
  let recovery_s = Trace.now () -. t0 in
  ok (Durable.certify t2);
  Durable.close t2;
  let replayed = r.Durable.replayed in
  let per_s = Float.of_int replayed /. Float.max recovery_s 1e-9 in
  (* reopening a checkpointed Docs store at n and 2n documents:
     reification is linear, so the ratio stays near 2.  Both stores are
     built first and their opens interleaved, fastest of nine each, so
     a GC slice or scheduler hiccup in one open decides neither side;
     each open starts from a fully collected heap, so it pays for its
     own garbage and not for what the previous one left. *)
  let build_store n =
    let dir = Filename.temp_file "mirror-bench-reopen" ".db" in
    Sys.remove dir;
    let t, _ = ok (Durable.open_ ~dir ()) in
    ignore (ok (Mirror.exec_program (Durable.mirror t) docs_schema));
    ignore (ok (Mirror.load (Durable.mirror t) ~name:"Docs" (text_rows (Prng.create 77) ~n)));
    Durable.close t;
    dir
  in
  (* the wall time of one open, and the words it allocates: a count
     that repeats run to run whatever the host's speed *)
  let open_s dir =
    Gc.full_major ();
    let w0 = Gc.allocated_bytes () in
    let t0 = Trace.now () in
    let t, _ = ok (Durable.open_ ~dir ()) in
    let s = Trace.now () -. t0 in
    (* the allocation counters are brought up to date only at a minor
       collection: without one, the words still in the minor heap go
       uncounted and a small open reads low *)
    Gc.minor ();
    let words = (Gc.allocated_bytes () -. w0) /. Float.of_int (Sys.word_size / 8) in
    Durable.abandon t;
    (s, words)
  in
  (* one getBL query on the reopened store: it reads the inverted
     index, so it makes no occurrence scan *)
  let scans_after_open dir =
    let t, _ = ok (Durable.open_ ~dir ()) in
    let space =
      Option.get (Storage.space_find (Mirror.storage (Durable.mirror t)) "Docs#el/annotation")
    in
    let before = Space.scans space in
    ignore
      (ok
         (Mirror.run_query (Durable.mirror t)
            (Printf.sprintf "map[sum(getBL(THIS.annotation, {%s}, stats))](Docs)"
               (String.concat ", " (List.map (Printf.sprintf "'%s'") query_terms)))));
    let scanned = Space.scans space - before in
    Durable.abandon t;
    scanned
  in
  let docs = if quick then 250 else 1000 in
  let dir_n = build_store docs and dir_2n = build_store (2 * docs) in
  let (reopen_n, words_n), (reopen_2n, words_2n), scans_after_reopen =
    Fun.protect
      ~finally:(fun () ->
        Mirror_util.Fsx.rm_rf dir_n;
        Mirror_util.Fsx.rm_rf dir_2n)
    @@ fun () ->
    (* fastest of nine, and the fewest words *)
    let best (s, w) (s', w') = (Float.min s s', Float.min w w') in
    let n = ref (infinity, infinity) and n2 = ref (infinity, infinity) in
    for _ = 1 to 9 do
      n := best !n (open_s dir_n);
      n2 := best !n2 (open_s dir_2n)
    done;
    (!n, !n2, scans_after_open dir_n)
  in
  let words_per_doc_n = words_n /. Float.of_int docs
  and words_per_doc_2n = words_2n /. Float.of_int (2 * docs) in
  let t =
    Tablefmt.create ~title:"crash recovery (single shot)"
      [ ("measure", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "records replayed"; Tablefmt.cell_int replayed ];
  Tablefmt.add_row t [ "log bytes scanned"; Tablefmt.cell_int log_bytes ];
  Tablefmt.add_row t [ "recovery wall time (ms)"; ms recovery_s ];
  Tablefmt.add_row t [ "replay throughput (records/s)"; Tablefmt.cell_float ~prec:0 per_s ];
  Tablefmt.add_row t
    [
      Printf.sprintf "reopen %d / %d Docs (ms, ratio)" docs (2 * docs);
      Printf.sprintf "%s / %s (%.2f)" (ms reopen_n) (ms reopen_2n) (reopen_2n /. reopen_n);
    ];
  Tablefmt.add_row t
    [
      "reopen words allocated per doc (ratio)";
      Printf.sprintf "%.0f / %.0f (%.3f)" words_per_doc_n words_per_doc_2n
        (words_per_doc_2n /. words_per_doc_n);
    ];
  Tablefmt.add_row t [ "getBL occurrence scans after reopen"; Tablefmt.cell_int scans_after_reopen ];
  Tablefmt.print t;
  if replayed <> records then begin
    Printf.printf "RECOVERY: expected %d replayed records, got %d\n" records replayed;
    exit 1
  end;
  record_entry "RECOVERY"
    [
      ("records_replayed", Json.Int replayed);
      ("log_bytes", Json.Int log_bytes);
      ("recovery_ms", json_ms recovery_s);
      ("replay_records_per_s", Json.Float per_s);
      ("certified", Json.Bool true);
      ("reopen_docs", Json.Int docs);
      ("reopen_n_ms", json_ms reopen_n);
      ("reopen_2n_ms", json_ms reopen_2n);
      ("reopen_n_words_per_doc", Json.Float words_per_doc_n);
      ("reopen_2n_words_per_doc", Json.Float words_per_doc_2n);
      ("getbl_scans_after_reopen", Json.Int scans_after_reopen);
    ];
  print_endline
    "expected shape: every logged record replayed, recovery certified\n\
     (flattened vs naive agreement on every recovered extent); reopening\n\
     twice the documents takes at most 2.5x as long (the words allocated\n\
     per document, a ratio of 1.0 when reopen is linear, say the same\n\
     without the host's noise); getBL on the reopened store reads the\n\
     inverted index (0 occurrence scans)."

(* {1 CHAOS and PCHAOS: the delivery engine under seeded fault schedules}

   One runner for both entries.  CHAOS drives the in-process transport
   (virtual clock) through random flaky/outage schedules; PCHAOS drives
   forked worker processes with real SIGKILLs and, on every fourth
   schedule, the orchestrator itself dying at an armed journal crash
   point and recovering from the delivery journal.  Both heal, drain
   the dead letters, and require every schedule to converge to the
   failure-free store. *)

module Daemon = Mirror_daemon.Daemon
module Standard = Mirror_daemon.Standard
module Faults = Mirror_daemon.Faults

let chaos_scenes =
  Synth.corpus (Prng.create 31) ~n:2 ~width:16 ~height:16 ~annotated_fraction:0.8 ()

let chaos_url i = Printf.sprintf "img://%d" i

(* In process: the default configuration.  Worker processes run on the
   wall clock, so breakers reopen in milliseconds and a stranded backlog
   expires in two seconds. *)
let chaos_config procs =
  if procs = 0 then Orchestrator.default_config
  else
    {
      Orchestrator.default_config with
      Orchestrator.procs;
      ttl = 2.0;
      breaker =
        {
          Mirror_daemon.Supervisor.failure_threshold = 3;
          base_backoff = 0.004;
          max_backoff = 0.05;
          jitter = 0.2;
        };
    }

let chaos_ingest orch =
  Array.iteri
    (fun i (s : Synth.scene) ->
      let annotation = Option.map (String.concat " ") s.Synth.caption in
      Orchestrator.ingest_image orch ~doc:i ~url:(chaos_url i) ?annotation s.Synth.image)
    chaos_scenes;
  Orchestrator.complete_collection orch

(* Run to completion, restarting after in-process handler crashes. *)
let chaos_run orch =
  let rec attempt n =
    match Orchestrator.run orch with
    | report -> report
    | exception Faults.Crash _ when n < 10 -> attempt (n + 1)
  in
  attempt 0

(* A store digest sufficient to witness convergence: what each daemon
   deposited, per document. *)
let chaos_digest orch =
  let module Store = Mirror_daemon.Store in
  let store = (Orchestrator.ctx orch).Daemon.store in
  let per_doc =
    List.map
      (fun doc ->
        ( doc,
          Option.map List.length (Store.segments store ~doc),
          Store.text store ~doc,
          List.sort compare (Store.visual_words store ~doc) ))
      (Store.docs store)
  in
  (per_doc, Store.clustered_spaces store, Store.thesaurus store <> None)

type chaos_tally = {
  mutable schedules : int;
  mutable quiesced : int;
  mutable converged : int;
  mutable dead : int;
  mutable redelivered : int;
  mutable rounds : float list;
}

let chaos_tally () =
  { schedules = 0; quiesced = 0; converged = 0; dead = 0; redelivered = 0; rounds = [] }

(* Heal, drain the dead letters, and score convergence. *)
let chaos_converge tally ~baseline orch =
  tally.dead <- tally.dead + List.length (Orchestrator.dead_letters orch);
  let rec go n =
    tally.redelivered <- tally.redelivered + Orchestrator.redeliver orch;
    let r = chaos_run orch in
    if n < 10 && ((not r.Orchestrator.quiescent) || Orchestrator.dead_letters orch <> [])
    then go (n + 1)
  in
  go 0;
  tally.schedules <- tally.schedules + 1;
  if chaos_digest orch = baseline then tally.converged <- tally.converged + 1

(* The shared runner: one schedule of daemon faults (transient until
   [healed]) and worker SIGKILLs [(round, slot)] on [procs] workers. *)
let chaos_schedule tally ~baseline ~procs ?(kills = []) ~healed daemons =
  let orch = Orchestrator.create ~daemons ~config:(chaos_config procs) () in
  chaos_ingest orch;
  Orchestrator.set_tick_hook orch
    (Some
       (fun round ->
         List.iter
           (fun (at, slot) -> if round = at then ignore (Orchestrator.kill_worker orch slot))
           kills));
  let report = chaos_run orch in
  Orchestrator.set_tick_hook orch None;
  tally.rounds <- float_of_int report.Orchestrator.rounds :: tally.rounds;
  if report.Orchestrator.quiescent then tally.quiesced <- tally.quiesced + 1;
  healed := true;
  chaos_converge tally ~baseline orch;
  Orchestrator.shutdown orch;
  orch

let chaos_baseline procs =
  let orch = Orchestrator.create ~config:(chaos_config procs) () in
  chaos_ingest orch;
  assert (chaos_run orch).Orchestrator.quiescent;
  Orchestrator.shutdown orch;
  chaos_digest orch

let chaos_fail name (tally : chaos_tally) =
  if tally.converged <> tally.schedules then begin
    Printf.printf "%s: %d/%d schedules failed to converge\n" name
      (tally.schedules - tally.converged) tally.schedules;
    exit 1
  end

let experiment_chaos () =
  section "CHAOS: in-process delivery under seeded fault schedules";
  let schedules = if quick then 40 else 150 in
  let baseline = chaos_baseline 0 in
  let tally = chaos_tally () in
  for seed = 0 to schedules - 1 do
    let g = Prng.create (0xC4A05 + seed) in
    let healed = ref false in
    let daemons =
      List.map
        (fun (d : Daemon.t) ->
          match Prng.int g 4 with
          | 0 ->
            let rate = 0.2 +. Prng.float g 0.6 in
            let gd = Prng.split g in
            Faults.switched (fun () -> (not !healed) && Prng.float gd 1.0 < rate) d
          | 1 -> Faults.switched (fun () -> not !healed) d
          | _ -> d)
        (Standard.all ())
    in
    ignore (chaos_schedule tally ~baseline ~procs:0 ~healed daemons)
  done;
  let rounds_p50 = Mirror_util.Stat.median (Array.of_list tally.rounds) in
  (* degraded-run overhead: ingest with one permanently broken
     non-critical daemon vs the failure-free pipeline *)
  let pipeline daemons =
    let orch = Orchestrator.create ~daemons () in
    chaos_ingest orch;
    chaos_run orch
  in
  let clean_s = seconds_per_run (fun () -> pipeline (Standard.all ())) in
  let degraded_s =
    seconds_per_run (fun () ->
        pipeline
          (List.map
             (fun (d : Daemon.t) ->
               if d.Daemon.name = "annotation-indexer" then Faults.broken d else d)
             (Standard.all ())))
  in
  let t =
    Tablefmt.create ~title:(Printf.sprintf "%d seeded fault schedules" schedules)
      [ ("measure", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "schedules"; Tablefmt.cell_int schedules ];
  Tablefmt.add_row t [ "quiesced first run"; Tablefmt.cell_int tally.quiesced ];
  Tablefmt.add_row t [ "converged after redelivery"; Tablefmt.cell_int tally.converged ];
  Tablefmt.add_row t [ "dead letters (total)"; Tablefmt.cell_int tally.dead ];
  Tablefmt.add_row t [ "redelivered (total)"; Tablefmt.cell_int tally.redelivered ];
  Tablefmt.add_row t [ "rounds to quiesce (p50)"; Tablefmt.cell_float ~prec:1 rounds_p50 ];
  Tablefmt.add_row t [ "failure-free run (ms)"; ms clean_s ];
  Tablefmt.add_row t [ "degraded run (ms)"; ms degraded_s ];
  Tablefmt.print t;
  chaos_fail "CHAOS" tally;
  record_entry "CHAOS"
    [
      ("schedules", Json.Int schedules);
      ("quiesced", Json.Int tally.quiesced);
      ("converged", Json.Int tally.converged);
      ("dead_letters", Json.Int tally.dead);
      ("redelivered", Json.Int tally.redelivered);
      ("rounds_p50", Json.Float rounds_p50);
      ("clean_ms", json_ms clean_s);
      ("degraded_ms", json_ms degraded_s);
    ];
  print_endline
    "expected shape: every schedule converges to the failure-free store\n\
     after healing and redelivery; the degraded run costs little more than\n\
     the clean one (the breaker sheds the downed daemon's work)."

let experiment_pchaos () =
  section "PCHAOS: worker-process delivery under kill-based chaos";
  if not Sys.unix then begin
    record_entry "PCHAOS" [ ("skipped", Json.Bool true) ];
    print_endline "skipped: worker processes need POSIX fork/pipes/signals"
  end
  else begin
    let module Media = Mirror_daemon.Media in
    let schedules = if quick then 10 else 40 in
    let baseline = chaos_baseline 2 in
    let tally = chaos_tally () in
    let killed = ref 0 and deaths = ref 0 and restarts = ref 0 in
    let crashes = ref 0 in
    let recovery_ms = ref [] in
    let crash_points =
      [| "fabric.route"; "fabric.done"; "fabric.settled"; "checkpoint.meta" |]
    in
    for seed = 0 to schedules - 1 do
      Faults.reset_faults ();
      if seed mod 4 = 3 then begin
        (* orchestrator-crash schedule: the parent dies at a journal
           crash point and recovers from the delivery journal *)
        let dir = Filename.temp_file "mirror-bench-pchaos" ".db" in
        Sys.remove dir;
        Fun.protect ~finally:(fun () -> Mirror_util.Fsx.rm_rf dir) @@ fun () ->
        let open_ ?(checkpoint_every = 0) () =
          let config = { Durable.default_config with Durable.checkpoint_every } in
          match
            Result.bind (Durable.open_ ~config ~dir ()) (fun (d, (_ : Durable.recovery)) ->
                Durable.orchestrator ~config:(chaos_config 2) ~seed d)
          with
          | Ok orch -> orch
          | Error e -> failwith e
        in
        let orch = open_ ~checkpoint_every:8 () in
        chaos_ingest orch;
        Faults.arm_crash
          crash_points.(seed / 4 mod Array.length crash_points)
          ~after:(5 + (seed * 3 mod 15));
        let crashed =
          match Orchestrator.run orch with _ -> false | exception Faults.Crash _ -> true
        in
        Faults.reset_faults ();
        let orch =
          if not crashed then orch
          else begin
            incr crashes;
            let t0 = Trace.now () in
            let orch2 = open_ () in
            recovery_ms := (1000.0 *. (Trace.now () -. t0)) :: !recovery_ms;
            let media = (Orchestrator.ctx orch2).Daemon.media in
            Array.iteri
              (fun i (s : Synth.scene) -> Media.put media ~url:(chaos_url i) s.Synth.image)
              chaos_scenes;
            orch2
          end
        in
        chaos_converge tally ~baseline orch;
        Orchestrator.shutdown orch
      end
      else begin
        (* kill schedule: SIGKILL live workers while the pipeline runs;
           every third schedule also takes one daemon down for the
           first run (healed before the drain) so the dead-letter
           queue and redelivery see real traffic *)
        let g = Prng.create (0xF0B + (seed * 7919)) in
        let procs = 2 + Prng.int g 2 in
        let healed = ref false in
        let daemons =
          if seed mod 3 = 1 then
            List.map
              (fun (d : Daemon.t) ->
                if d.Daemon.name = "annotation-indexer" then
                  Faults.switched (fun () -> not !healed) d
                else d)
              (Standard.all ())
          else Standard.all ()
        in
        let kills =
          List.init (1 + Prng.int g 3) (fun _ -> (2 + Prng.int g 12, Prng.int g procs))
        in
        let orch = chaos_schedule tally ~baseline ~procs ~kills ~healed daemons in
        killed := !killed + Orchestrator.kills orch;
        deaths := !deaths + Orchestrator.deaths orch;
        restarts := !restarts + Orchestrator.restarts orch
      end
    done;
    let recovery_p50 =
      match !recovery_ms with [] -> 0.0 | l -> Mirror_util.Stat.median (Array.of_list l)
    in
    let t =
      Tablefmt.create
        ~title:(Printf.sprintf "%d kill/crash schedules" schedules)
        [ ("measure", Tablefmt.Left); ("value", Tablefmt.Right) ]
    in
    Tablefmt.add_row t [ "schedules"; Tablefmt.cell_int schedules ];
    Tablefmt.add_row t [ "workers SIGKILLed"; Tablefmt.cell_int !killed ];
    Tablefmt.add_row t [ "worker deaths observed"; Tablefmt.cell_int !deaths ];
    Tablefmt.add_row t [ "processes restarted"; Tablefmt.cell_int !restarts ];
    Tablefmt.add_row t [ "orchestrator crashes"; Tablefmt.cell_int !crashes ];
    Tablefmt.add_row t [ "dead letters replayed"; Tablefmt.cell_int tally.dead ];
    Tablefmt.add_row t [ "redelivered (total)"; Tablefmt.cell_int tally.redelivered ];
    Tablefmt.add_row t
      [ "journal recovery (ms, p50)"; Tablefmt.cell_float ~prec:2 recovery_p50 ];
    Tablefmt.add_row t [ "converged"; Tablefmt.cell_int tally.converged ];
    Tablefmt.print t;
    chaos_fail "PCHAOS" tally;
    record_entry "PCHAOS"
      [
        ("schedules", Json.Int schedules);
        ("killed", Json.Int !killed);
        ("deaths", Json.Int !deaths);
        ("restarts", Json.Int !restarts);
        ("orchestrator_crashes", Json.Int !crashes);
        ("dead_letters", Json.Int tally.dead);
        ("redelivered", Json.Int tally.redelivered);
        ("recovery_ms_p50", Json.Float recovery_p50);
        ("converged", Json.Int tally.converged);
      ];
    print_endline
      "expected shape: every schedule converges to the failure-free store —\n\
       SIGKILLed workers are respawned on breaker half-open and their\n\
       in-flight deliveries retried; an orchestrator crash recovers the\n\
       exact pending/dead-letter state from the delivery journal."
  end

(* {1 PARALLEL: morsel-parallel kernel vs the sequential kernel}

   Direct operator-level comparison on 1M-row BATs (100k in quick
   mode): a full scan, a join and a grouped sum — each one [Bat] call,
   run sequentially and under [Parkernel.with_pool] at 2 and 4 domains.  Timed with the trace's wall clock —
   [Sys.time] sums CPU seconds across domains and would hide any
   speedup.  Every parallel result is checked [Bat.equal] against the
   sequential one (the kernel's determinism contract), and the entry
   records the host's core count: on a single-core host the speedups
   are honest slowdowns (pure scheduling overhead), so the validator
   only requires speedup >= 1 when [cores >= 4]. *)

let experiment_parallel () =
  section "PARALLEL: morsel-parallel kernel (OCaml 5 domains) vs sequential";
  let n = if quick then 100_000 else 1_000_000 in
  let cores = Domain.recommended_domain_count () in
  let g = Prng.create 1999 in
  let dense = Column.O (Array.init n (fun i -> i)) in
  let scan_b = Bat.make dense (Column.I (Array.init n (fun _ -> Prng.int g 1000))) in
  let m = max 1 (n / 8) in
  let join_l = Bat.make dense (Column.O (Array.init n (fun _ -> Prng.int g m))) in
  let join_r =
    Bat.make
      (Column.O (Array.init m (fun i -> i)))
      (Column.I (Array.init m (fun _ -> Prng.int g 1_000_000)))
  in
  let grp_b =
    Bat.make
      (Column.O (Array.init n (fun _ -> Prng.int g 1024)))
      (Column.I (Array.init n (fun _ -> Prng.int g 1000)))
  in
  let workloads =
    [
      ("scan select", fun () -> Bat.select_cmp scan_b Bat.Lt (Atom.Int 500));
      ("hash join", fun () -> Bat.join join_l join_r);
      ("group sum", fun () -> Bat.group_aggr Bat.Sum grp_b);
    ]
  in
  (* wall clock, not [seconds_per_run]'s CPU clock *)
  let wall f =
    ignore (f ());
    let t0 = Trace.now () in
    ignore (f ());
    let est = Float.max (Trace.now () -. t0) 1e-6 in
    let reps = max 3 (min 25 (int_of_float (0.5 /. est))) in
    let times =
      Array.init reps (fun _ ->
          let t0 = Trace.now () in
          ignore (f ());
          Trace.now () -. t0)
    in
    Mirror_util.Stat.median times
  in
  let pools = List.map (fun d -> (d, Parkernel.create d)) [ 2; 4 ] in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf "wall-clock latency at %d rows (ms); host has %d core(s)" n cores)
      [
        ("operator", Tablefmt.Left);
        ("sequential", Tablefmt.Right);
        ("2 domains", Tablefmt.Right);
        ("speedup", Tablefmt.Right);
        ("4 domains", Tablefmt.Right);
        ("speedup", Tablefmt.Right);
      ]
  in
  let rows = ref [] in
  let digests_equal = ref true in
  let speedup4_min = ref infinity in
  List.iter
    (fun (label, op) ->
      let expected = op () in
      let t_seq = wall op in
      let timed =
        List.map
          (fun (d, pool) ->
            let par () = Parkernel.with_pool pool op in
            let jobs = (Parkernel.totals pool).Parkernel.t_jobs in
            let got = par () in
            if (Parkernel.totals pool).Parkernel.t_jobs = jobs then begin
              Printf.printf "!! %s: no parallel path at %d domains\n" label d;
              digests_equal := false
            end;
            if not (Bat.equal expected got) then begin
              Printf.printf "!! %s: parallel result differs at %d domains\n" label d;
              digests_equal := false
            end;
            (d, wall par))
          pools
      in
      let speedup_at d =
        match List.assoc_opt d timed with Some tp -> t_seq /. tp | None -> 0.0
      in
      speedup4_min := Float.min !speedup4_min (speedup_at 4);
      rows :=
        Json.Obj
          ([ ("operator", Json.Str label); ("sequential_ms", json_ms t_seq) ]
          @ List.concat_map
              (fun (d, tp) ->
                [
                  (Printf.sprintf "par%d_ms" d, json_ms tp);
                  (Printf.sprintf "speedup_%d" d, Json.Float (t_seq /. tp));
                ])
              timed)
        :: !rows;
      Tablefmt.add_row t
        ([ label; ms t_seq ]
        @ List.concat_map
            (fun (d, tp) ->
              [ ms tp; Tablefmt.cell_float ~prec:2 (speedup_at d) ^ "x" ])
            timed))
    workloads;
  List.iter (fun (_, pool) -> Parkernel.shutdown pool) pools;
  Tablefmt.print t;
  record_entry "PARALLEL"
    [
      ("rows", Json.Int n);
      ("cores", Json.Int cores);
      ("digests_equal", Json.Bool !digests_equal);
      ("speedup_4", Json.Float !speedup4_min);
      ("operators", Json.Arr (List.rev !rows));
    ];
  Printf.printf
    "expected shape: parallel results are bitwise equal to sequential at every\n\
     domain count; with >= 4 real cores the 4-domain column wins (this host has\n\
     %d), on fewer cores the overhead column is the honest price of morsels.\n"
    cores

(* {1 BOUND: static resource envelopes vs measured footprints}

   For every docs-workload query, compare Boundcheck's estimated
   resident footprint (and sound peak bound) against the bytes the
   session actually held after execution.  Soundness is asserted per
   query (actual never above the peak); the recorded estimation error
   ratio — max(est/actual, actual/est), always >= 1 — tracks how loose
   the estimates are across PRs. *)

let experiment_bound () =
  section "BOUND: static resource envelopes vs measured footprints";
  let n = if quick then 64 else 256 in
  let m = make_docs ~n in
  let st = Mirror.storage m in
  let tbl =
    Tablefmt.create
      ~title:(Printf.sprintf "static bounds vs measured footprint (%d docs)" n)
      Tablefmt.
        [
          ("query", Left);
          ("est rows", Right);
          ("est bytes", Right);
          ("peak bytes", Right);
          ("actual", Right);
          ("err ratio", Right);
        ]
  in
  let rows =
    List.map
      (fun src ->
        let expr = ok (Parser.parse_expr ~bindings src) in
        let r = ok (Eval.query st expr) in
        let b = Lazy.force r.Eval.bounds in
        let est = b.Eval.est_bytes and actual = r.Eval.actual_bytes in
        (match b.Eval.peak_bytes with
        | Some peak when actual > peak ->
          Printf.printf "BOUND VIOLATION: %s held %d bytes over the sound peak %d\n" src
            actual peak;
          exit 1
        | _ -> ());
        let ratio =
          let e = float_of_int (max 1 est) and a = float_of_int (max 1 actual) in
          if e > a then e /. a else a /. e
        in
        Tablefmt.add_row tbl
          [
            src;
            string_of_int b.Eval.est_rows;
            string_of_int est;
            (match b.Eval.peak_bytes with
            | Some p -> string_of_int p
            | None -> "unbounded");
            string_of_int actual;
            Tablefmt.cell_float ~prec:2 ratio;
          ];
        ( Json.Obj
            [
              ("query", Json.Str src);
              ("est_rows", Json.Int b.Eval.est_rows);
              ("est_bytes", Json.Int est);
              ( "peak_bytes",
                match b.Eval.peak_bytes with Some p -> Json.Int p | None -> Json.Null
              );
              ("actual_bytes", Json.Int actual);
              ("error_ratio", Json.Float ratio);
            ],
          ratio ))
      docs_workload
  in
  print_string (Tablefmt.render tbl);
  let ratios = List.map snd rows in
  let mean = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
  let worst = List.fold_left max 1.0 ratios in
  Printf.printf
    "estimation error: mean %.2fx, worst %.2fx (soundness asserted per query above)\n" mean
    worst;
  record_entry "BOUND"
    [
      ("docs", Json.Int n);
      ("rows", Json.Arr (List.map fst rows));
      ("mean_error_ratio", Json.Float mean);
      ("max_error_ratio", Json.Float worst);
    ]

(* {1 SERVE: the concurrent serving tier over the docs workload}

   N sessions interleave the six vetted workload queries through
   {!Mirror_serve.Serve}: every session pins a snapshot up front, then
   submits one query per burst; the cooperative scheduler serves the
   bursts round-robin, so the result cache sees the same (version,
   normalized key) from every session after the first.  Per-request
   service time is the wall of the [step] that served it — cache hits
   and misses land in the same distribution, which is exactly the
   shape a client would see.  The correctness claim recorded (and
   enforced by bench/validate.ml) is that every session's concatenated
   result stream is bitwise identical: snapshot isolation plus the
   version-keyed cache may never let interleaving change an answer. *)

module Serve = Mirror_serve.Serve
module Qcache = Mirror_serve.Qcache
module Protocol = Mirror_serve.Protocol

let experiment_serve () =
  section "SERVE: concurrent sessions, snapshot reads, result cache";
  let n_docs = if quick then 200 else 800 in
  let n_sessions = 8 in
  let rounds = if quick then 3 else 6 in
  let m = make_docs ~n:n_docs in
  let config = { Serve.default_config with queue_capacity = 4; cache_capacity = 64 } in
  let srv = Serve.local ~config ~bindings m in
  let ok_s = function
    | Ok v -> v
    | Error e ->
      prerr_endline ("bench error: " ^ Serve.error_to_string e);
      exit 1
  in
  let sessions = Array.init n_sessions (fun _ -> ok_s (Serve.open_session srv)) in
  let streams = Array.init n_sessions (fun _ -> Buffer.create 4096) in
  let latencies = ref [] in
  let refusals = ref 0 in
  let requests = ref 0 in
  (* wall seconds spent rendering replies into one reused line, as the
     server does, and replies rendered *)
  let render_s = ref 0.0 and rendered = ref 0 in
  let line = Protocol.line () in
  (* every session reads one frozen snapshot for the whole run *)
  Array.iter (fun s -> ignore (ok_s (Serve.submit srv s Serve.Pin))) sessions;
  Serve.drain srv;
  Array.iter (fun s -> ignore (Serve.replies s)) sessions;
  let t0 = Sys.time () in
  for _ = 1 to rounds do
    List.iter
      (fun q ->
        Array.iter
          (fun s ->
            match Serve.submit srv s (Serve.Query q) with
            | Ok _ -> incr requests
            | Error (Serve.Admission_refused _) -> incr refusals
            | Error e -> ok_s (Error e))
          sessions;
        (* pump the burst to quiescence, timing each served request *)
        let rec pump () =
          let s0 = Sys.time () in
          if Serve.step srv then begin
            latencies := (Sys.time () -. s0) :: !latencies;
            pump ()
          end
        in
        pump ();
        Array.iteri
          (fun i s ->
            let replies = Serve.replies s in
            let r0 = Mirror_util.Clock.(now wall) in
            List.iter (fun (rid, reply) -> Protocol.reply_into line rid reply) replies;
            render_s := !render_s +. (Mirror_util.Clock.(now wall) -. r0);
            rendered := !rendered + List.length replies;
            List.iter
              (fun (_rid, reply) ->
                match reply with
                | Ok (Serve.Value { value; _ }) ->
                  Buffer.add_string streams.(i) (Value.to_string value);
                  Buffer.add_char streams.(i) '\n'
                | Ok _ -> ()
                | Error e -> ok_s (Error e))
              replies)
          sessions)
      docs_workload
  done;
  let elapsed = Float.max (Sys.time () -. t0) 1e-9 in
  (* provoke queue-overflow shedding on a throwaway session so the
     entry records admission control actually refusing work *)
  let shed = ok_s (Serve.open_session srv) in
  for _ = 1 to config.Serve.queue_capacity + 4 do
    match Serve.submit srv shed (Serve.Query "count(Docs)") with
    | Ok _ -> ()
    | Error (Serve.Admission_refused _) -> incr refusals
    | Error e -> ok_s (Error e)
  done;
  Serve.drain srv;
  ignore (Serve.replies shed);
  Serve.close_session srv shed;
  let digest0 = Digest.string (Buffer.contents streams.(0)) in
  let digests_equal =
    Array.for_all (fun b -> Digest.string (Buffer.contents b) = digest0) streams
  in
  let lat = Array.of_list !latencies in
  let p50 = Mirror_util.Stat.percentile lat 50.0 in
  let p95 = Mirror_util.Stat.percentile lat 95.0 in
  let st = Serve.stats srv in
  let hit_rate = Qcache.hit_rate st.Serve.cache in
  let throughput = Float.of_int !requests /. elapsed in
  let render_us = 1e6 *. !render_s /. Float.of_int (max 1 !rendered) in
  Array.iter (fun s -> Serve.close_session srv s) sessions;
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf "%d sessions x %d rounds over the %d-query docs workload" n_sessions
           rounds (List.length docs_workload))
      [ ("measure", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "requests served"; Tablefmt.cell_int !requests ];
  Tablefmt.add_row t [ "throughput (req/s)"; Tablefmt.cell_float ~prec:0 throughput ];
  Tablefmt.add_row t [ "latency p50 (ms)"; ms p50 ];
  Tablefmt.add_row t [ "latency p95 (ms)"; ms p95 ];
  Tablefmt.add_row t [ "reply rendering (us)"; Tablefmt.cell_float ~prec:1 render_us ];
  Tablefmt.add_row t [ "cache hit rate"; Tablefmt.cell_float ~prec:3 hit_rate ];
  Tablefmt.add_row t [ "refusals"; Tablefmt.cell_int !refusals ];
  Tablefmt.add_row t [ "digests equal"; (if digests_equal then "yes" else "NO") ];
  Tablefmt.print t;
  if not digests_equal then begin
    print_endline "SERVE: session result streams diverged";
    exit 1
  end;
  record_entry "SERVE"
    [
      ("sessions", Json.Int n_sessions);
      ("requests", Json.Int !requests);
      ("throughput_rps", Json.Float throughput);
      ("p50_ms", json_ms p50);
      ("p95_ms", json_ms p95);
      ("render_us", Json.Float render_us);
      ("cache_hit_rate", Json.Float hit_rate);
      ("refusals", Json.Int !refusals);
      ("digests_equal", Json.Bool digests_equal);
      ("versions_published", Json.Int st.Serve.versions_published);
      ("batches", Json.Int st.Serve.batches);
    ];
  print_endline
    "expected shape: after the first session's miss every other session\n\
     hits the version-keyed cache (hit rate well above 1/8), p50 sits far\n\
     below p95 (hits vs evaluations), and all eight result streams are\n\
     bitwise identical."

let () =
  Printf.printf "Mirror MMDBMS experiment harness%s\n" (if quick then " (quick mode)" else "");
  vet_workloads ();
  experiment_f1 ();
  experiment_q1 ();
  experiment_e1 ();
  experiment_e2 ();
  experiment_e3 ();
  experiment_e4 ();
  experiment_e5 ();
  experiment_q2_e6 ();
  experiment_recovery ();
  experiment_chaos ();
  experiment_pchaos ();
  experiment_parallel ();
  experiment_bound ();
  experiment_serve ();
  write_bench_json ();
  print_endline "\nall experiments complete."
