(* Satellite coverage for persistence and relevance feedback.

   Persistence: a save/load round trip must restore the BAT catalog
   exactly (same names, same row counts) and leave every corpus query
   bit-identical under both evaluators.

   Feedback: Rocchio reformulation is a pure function (same judgements
   twice → the same query), and in the §5.2 demo session refining with
   judgements must not push a judged-relevant image down the ranking. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Catalog = Mirror_bat.Catalog
module Corpus = Mirror_core.Corpus
module Eval = Mirror_core.Eval
module Feedback = Mirror_core.Feedback
module Mirror = Mirror_core.Mirror
module Naive = Mirror_core.Naive
module Parser = Mirror_core.Parser
module Snapshot = Mirror_store.Snapshot
module Storage = Mirror_core.Storage
module Value = Mirror_core.Value
module Prng = Mirror_util.Prng
module Synth = Mirror_mm.Synth

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

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

(* {1 Persistence} *)

let test_catalog_restored () =
  with_temp_dir (fun dir ->
      let st = Corpus.storage () in
      ok (Snapshot.save st ~dir);
      let st2 = ok (Snapshot.load ~dir) in
      let c1 = Storage.catalog st and c2 = Storage.catalog st2 in
      let names c = List.sort compare (Catalog.names c) in
      Alcotest.(check (list string)) "catalog names" (names c1) (names c2);
      List.iter
        (fun name ->
          Alcotest.(check int)
            ("row count of " ^ name)
            (Bat.count (Catalog.get c1 name))
            (Bat.count (Catalog.get c2 name)))
        (names c1);
      Alcotest.(check int) "total rows" (Catalog.total_rows c1) (Catalog.total_rows c2))

let test_queries_survive_reload () =
  with_temp_dir (fun dir ->
      let st = Corpus.storage () in
      ok (Snapshot.save st ~dir);
      let st2 = ok (Snapshot.load ~dir) in
      List.iter
        (fun src ->
          let e =
            match Parser.parse_expr src with
            | Ok e -> e
            | Error msg -> Alcotest.failf "parse: %s" msg
          in
          let before = ok (Eval.query_value st e) in
          let after = ok (Eval.query_value st2 e) in
          if not (Value.equal before after) then
            Alcotest.failf "flattened result changed across reload on %s" src;
          if not (Value.equal before (Naive.eval st2 e)) then
            Alcotest.failf "naive result changed across reload on %s" src)
        Corpus.queries)

(* {1 Feedback} *)

let test_rocchio_deterministic () =
  let original = [ ("stripe", 1.0); ("sky", 0.5) ] in
  let relevant = [ [ ("stripe", 2.0); ("grass", 1.0) ]; [ ("stripe", 1.0); ("blob", 0.25) ] ] in
  let irrelevant = [ [ ("sky", 3.0); ("blob", 1.0) ] ] in
  let run () = Feedback.rocchio ~original ~relevant ~irrelevant () in
  let a = run () and b = run () in
  Alcotest.(check (list (pair string (float 1e-12)))) "same inputs, same query" a b;
  (* moved towards the relevant bags, away from the irrelevant one *)
  let w term q = Option.value ~default:0.0 (List.assoc_opt term q) in
  Alcotest.(check bool) "relevant term gained" true (w "stripe" a > w "stripe" original);
  Alcotest.(check bool) "irrelevant term lost" true (w "sky" a < w "sky" original)

let demo_mirror () =
  let g = Prng.create 2025 in
  let scenes = Synth.corpus g ~n:10 ~width:32 ~height:32 ~annotated_fraction:0.8 () in
  let m = Mirror.create () in
  ignore (ok (Mirror.build_image_library m ~scenes ()));
  (m, scenes)

let test_refined_search_deterministic () =
  let rankings () =
    let m, _ = demo_mirror () in
    let initial = ok (Mirror.search m ~limit:8 ~mode:Mirror.Dual "stripes") in
    let judgements = List.map (fun (url, _) -> (url, true)) initial in
    ok (Mirror.search_refined m ~limit:8 ~query:"stripes" ~judgements ())
  in
  let a = rankings () and b = rankings () in
  Alcotest.(check (list (pair string (float 1e-9)))) "refinement is deterministic" a b

let test_refined_search_target_rank () =
  let m, scenes = demo_mirror () in
  let query = "stripes" in
  let relevant url =
    match String.rindex_opt url '/' with
    | Some i ->
      Synth.relevant
        scenes.(int_of_string (String.sub url (i + 1) (String.length url - i - 1)))
        ~query_words:[ query ]
    | None -> false
  in
  let limit = Mirror.library_size m in
  let initial = ok (Mirror.search m ~limit ~mode:Mirror.Dual query) in
  let judgements = List.map (fun (url, _) -> (url, relevant url)) initial in
  let target =
    match List.find_opt (fun (url, _) -> relevant url) initial with
    | Some (url, _) -> url
    | None -> Alcotest.fail "no relevant image in the initial ranking"
  in
  let rank_of url hits =
    let rec go i = function
      | [] -> limit + 1
      | (u, _) :: _ when u = url -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 1 hits
  in
  let refined = ok (Mirror.search_refined m ~limit ~query ~judgements ()) in
  let before = rank_of target initial and after = rank_of target refined in
  Alcotest.(check bool)
    (Printf.sprintf "judged-relevant image not demoted (rank %d -> %d)" before after)
    true (after <= before)

let () =
  Alcotest.run "persist-feedback"
    [
      ( "persist",
        [
          Alcotest.test_case "catalog restored exactly" `Quick test_catalog_restored;
          Alcotest.test_case "corpus queries survive reload" `Quick test_queries_survive_reload;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "rocchio is deterministic" `Quick test_rocchio_deterministic;
          Alcotest.test_case "refined search is deterministic" `Quick
            test_refined_search_deterministic;
          Alcotest.test_case "relevant image not demoted" `Quick test_refined_search_target_rank;
        ] );
    ]
