(* Differential testing: every corpus query through both evaluators.

   The object-at-a-time reference interpreter (Naive) and the flattened
   set-at-a-time pipeline (Eval) must agree on every query in the
   shared static-analysis corpus — and they must keep agreeing when
   the optimiser stages are ablated, since those are the knobs the
   benchmark harness turns. *)

module Corpus = Mirror_core.Corpus
module Eval = Mirror_core.Eval
module Naive = Mirror_core.Naive
module Parser = Mirror_core.Parser
module Value = Mirror_core.Value

let variants =
  [
    ("default", fun st e -> Eval.query st e);
    ("no-optimize", fun st e -> Eval.query ~optimize:false st e);
    ("no-cse", fun st e -> Eval.query ~cse:false st e);
    ("checked", fun st e -> Eval.query ~check:true st e);
  ]

let run_query st src =
  let expr =
    match Parser.parse_expr src with
    | Ok e -> e
    | Error msg -> Alcotest.failf "corpus query failed to parse: %s\n  %s" msg src
  in
  let expected =
    try Naive.eval st expr
    with Failure msg -> Alcotest.failf "Naive.eval raised %S on %s" msg src
  in
  List.iter
    (fun (label, run) ->
      match run st expr with
      | Error msg -> Alcotest.failf "Eval.query (%s) failed on %s: %s" label src msg
      | Ok (r : Eval.report) ->
        if not (Value.equal expected r.Eval.value) then
          Alcotest.failf "evaluators disagree (%s) on %s\n  naive:     %s\n  flattened: %s"
            label src
            (Value.to_string expected)
            (Value.to_string r.Eval.value))
    variants

let test_corpus () =
  let st = Corpus.storage () in
  let n = List.length Corpus.queries in
  Alcotest.(check bool) "corpus has a real battery" true (n >= 40);
  List.iter (run_query st) Corpus.queries

(* Milopt's positional-join rule: in every corpus plan, each
   [join (reverse (number_head x b)) (number_tail x b)] node evaluates
   to exactly [x]. *)
module Mil = Mirror_bat.Mil
module Bat = Mirror_bat.Bat

let test_positional_join () =
  let st = Corpus.storage () in
  let session () =
    Mil.session
      ~foreign:(Mirror_core.Extension.foreign_dispatch (Mirror_core.Storage.eval_env st))
      (Mirror_core.Storage.catalog st)
  in
  let seen = ref 0 in
  let rec visit = function
    | Mil.Join (Mil.Reverse (Mil.NumberHead (x, b)), Mil.NumberTail (x', b')) as p
      when b = b' && x = x' ->
      incr seen;
      if not (Bat.equal (Mil.exec (session ()) p) (Mil.exec (session ()) x)) then
        Alcotest.failf "the positional join differs from its pair BAT:\n%s" (Mil.to_string p);
      List.iter visit (Mil.children p)
    | p -> List.iter visit (Mil.children p)
  in
  List.iter
    (fun src ->
      match Parser.parse_expr src with
      | Error msg -> Alcotest.failf "corpus query failed to parse: %s" msg
      | Ok e -> (
        match Mirror_core.Flatten.compile st e with
        | shape -> List.iter visit (Mirror_core.Shape.plans shape)
        | exception Mirror_core.Flatten.Unsupported _ -> ()))
    Corpus.queries;
  Alcotest.(check bool) "the rule's pattern occurs in the corpus" true (!seen > 0)

let () =
  Alcotest.run "differential"
    [
      ( "naive-vs-flattened",
        [
          Alcotest.test_case "all corpus queries, 4 pipeline variants" `Quick test_corpus;
          Alcotest.test_case "milopt positional join = its pair BAT" `Quick test_positional_join;
        ] );
    ]
