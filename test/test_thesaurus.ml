(* Tests for the association thesaurus (mirror_thesaurus). *)

module Assoc = Mirror_thesaurus.Assoc
module Concepts = Mirror_thesaurus.Concepts
module Adapt = Mirror_thesaurus.Adapt
module Querynet = Mirror_ir.Querynet

(* A tiny dual-coded corpus: "zebra" images carry cluster gabor_0,
   "sky" images carry cluster rgb_1, one unannotated image, one image
   with both. *)
let evidence =
  [
    { Assoc.doc = 0; text = [ ("zebra", 2.0); ("stripe", 1.0) ]; visual = [ ("gabor_0", 3.0) ] };
    { Assoc.doc = 1; text = [ ("zebra", 1.0) ]; visual = [ ("gabor_0", 2.0) ] };
    { Assoc.doc = 2; text = [ ("sky", 2.0); ("blue", 1.0) ]; visual = [ ("rgb_1", 4.0) ] };
    { Assoc.doc = 3; text = []; visual = [ ("gabor_0", 1.0) ] } (* unannotated *);
    {
      Assoc.doc = 4;
      text = [ ("zebra", 1.0); ("sky", 1.0) ];
      visual = [ ("gabor_0", 1.0); ("rgb_1", 1.0) ];
    };
  ]

(* {1 Assoc} *)

let test_of_caption () =
  let ev = Assoc.of_caption ~doc:7 ~caption:"The striped zebras" ~visual:[ ("g_0", 1.0) ] in
  Alcotest.(check int) "doc" 7 ev.Assoc.doc;
  Alcotest.(check (list (pair string (float 1e-9)))) "stemmed/stopped"
    [ ("stripe", 1.0); ("zebra", 1.0) ]
    ev.Assoc.text

let test_vocabularies () =
  Alcotest.(check (list string)) "text vocab"
    [ "zebra"; "stripe"; "sky"; "blue" ]
    (Assoc.text_vocabulary evidence);
  Alcotest.(check (list string)) "visual vocab" [ "gabor_0"; "rgb_1" ]
    (Assoc.visual_vocabulary evidence)

(* {1 Concepts} *)

let test_concepts_build () =
  let t = Concepts.build evidence in
  Alcotest.(check int) "two concepts" 2 (Concepts.concept_count t);
  Alcotest.(check (list string)) "names" [ "gabor_0"; "rgb_1" ] (Concepts.concepts t)

let test_concepts_associate () =
  let t = Concepts.build evidence in
  let ranked = Concepts.associate t (Querynet.flat [ "zebra" ]) in
  Alcotest.(check string) "zebra maps to texture cluster" "gabor_0" (fst (List.hd ranked));
  let ranked_sky = Concepts.associate t (Querynet.flat [ "sky" ]) in
  Alcotest.(check string) "sky maps to colour cluster" "rgb_1" (fst (List.hd ranked_sky))

let test_concepts_scores_ordered () =
  let t = Concepts.build evidence in
  let ranked = Concepts.associate t (Querynet.flat [ "zebra" ]) in
  let scores = List.map snd ranked in
  let rec desc = function a :: (b :: _ as r) -> a >= b && desc r | _ -> true in
  Alcotest.(check bool) "descending" true (desc scores)

let test_concepts_formulate () =
  let t = Concepts.build evidence in
  match Concepts.formulate t ~limit:1 (Querynet.flat [ "zebra" ]) with
  | Querynet.Wsum [ (w, Querynet.Term ("gabor_0", 1.0)) ] ->
    Alcotest.(check bool) "positive weight" true (w > 0.0)
  | other -> Alcotest.failf "unexpected query: %s" (Querynet.to_string other)

let test_concepts_unannotated_ignored () =
  (* doc 3 has no text: it must not bring gabor_0 an empty pseudo-doc boost *)
  let only_unannotated = [ List.nth evidence 3 ] in
  let t = Concepts.build only_unannotated in
  Alcotest.(check int) "no concepts from unannotated docs" 0 (Concepts.concept_count t)

(* {1 Adapt} *)

let test_adapt_reinforce () =
  let a = Adapt.create () in
  Alcotest.(check (float 1e-9)) "default weight" 1.0
    (Adapt.pair_weight a ~term:"zebra" ~concept:"gabor_0");
  Adapt.reinforce a ~terms:[ "zebra" ] ~concepts:[ "gabor_0" ] ~good:true;
  Alcotest.(check bool) "strengthened" true
    (Adapt.pair_weight a ~term:"zebra" ~concept:"gabor_0" > 1.0);
  Adapt.reinforce a ~terms:[ "zebra" ] ~concepts:[ "gabor_0" ] ~good:false;
  Alcotest.(check (float 1e-9)) "inverse updates cancel" 1.0
    (Adapt.pair_weight a ~term:"zebra" ~concept:"gabor_0");
  Alcotest.(check int) "pairs tracked" 1 (Adapt.pairs_adapted a)

let test_adapt_clamps () =
  let a = Adapt.create ~gain:2.0 ~floor:0.5 ~ceiling:2.5 () in
  for _ = 1 to 10 do
    Adapt.reinforce a ~terms:[ "t" ] ~concepts:[ "c" ] ~good:true
  done;
  Alcotest.(check (float 1e-9)) "ceiling" 2.5 (Adapt.pair_weight a ~term:"t" ~concept:"c");
  for _ = 1 to 10 do
    Adapt.reinforce a ~terms:[ "t" ] ~concepts:[ "c" ] ~good:false
  done;
  Alcotest.(check (float 1e-9)) "floor" 0.5 (Adapt.pair_weight a ~term:"t" ~concept:"c")

let test_adapt_adjust_reorders () =
  let a = Adapt.create () in
  let ranked = [ ("bad_concept", 0.6); ("good_concept", 0.55) ] in
  (* feedback says good_concept is right for this query *)
  for _ = 1 to 5 do
    Adapt.reinforce a ~terms:[ "q" ] ~concepts:[ "good_concept" ] ~good:true;
    Adapt.reinforce a ~terms:[ "q" ] ~concepts:[ "bad_concept" ] ~good:false
  done;
  match Adapt.adjust a ~terms:[ "q" ] ranked with
  | (first, _) :: _ -> Alcotest.(check string) "reordered" "good_concept" first
  | [] -> Alcotest.fail "empty"

let test_adapt_rejects_bad_gain () =
  Alcotest.check_raises "gain check" (Invalid_argument "Adapt.create: gain must exceed 1")
    (fun () -> ignore (Adapt.create ~gain:0.9 ()))

let () =
  Alcotest.run "mirror_thesaurus"
    [
      ( "assoc",
        [
          Alcotest.test_case "of_caption" `Quick test_of_caption;
          Alcotest.test_case "vocabularies" `Quick test_vocabularies;
        ] );
      ( "concepts",
        [
          Alcotest.test_case "build" `Quick test_concepts_build;
          Alcotest.test_case "associate by modality" `Quick test_concepts_associate;
          Alcotest.test_case "ranking order" `Quick test_concepts_scores_ordered;
          Alcotest.test_case "formulate wsum" `Quick test_concepts_formulate;
          Alcotest.test_case "unannotated ignored" `Quick test_concepts_unannotated_ignored;
        ] );
      ( "adapt",
        [
          Alcotest.test_case "reinforce" `Quick test_adapt_reinforce;
          Alcotest.test_case "clamping" `Quick test_adapt_clamps;
          Alcotest.test_case "adjust reorders" `Quick test_adapt_adjust_reorders;
          Alcotest.test_case "gain validation" `Quick test_adapt_rejects_bad_gain;
        ] );
    ]
