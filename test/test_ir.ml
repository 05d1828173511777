(* Tests for the inference-network IR engine (mirror_ir). *)

module Tokenize = Mirror_ir.Tokenize
module Stopwords = Mirror_ir.Stopwords
module Porter = Mirror_ir.Porter
module Vocab = Mirror_ir.Vocab
module Space = Mirror_ir.Space
module Belief = Mirror_ir.Belief
module Querynet = Mirror_ir.Querynet
module Index = Mirror_ir.Index
module Search = Mirror_ir.Search
module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom

(* {1 Porter} *)

let porter_vectors =
  [
    ("caresses", "caress"); ("ponies", "poni"); ("ties", "ti"); ("cats", "cat");
    ("agreed", "agre"); ("plastered", "plaster"); ("motoring", "motor");
    ("hopping", "hop"); ("falling", "fall"); ("hissing", "hiss"); ("filing", "file");
    ("happy", "happi"); ("sky", "sky"); ("relational", "relat");
    ("conditional", "condit"); ("digitizer", "digit"); ("operator", "oper");
    ("triplicate", "triplic"); ("formalize", "formal"); ("hopeful", "hope");
    ("goodness", "good"); ("adjustable", "adjust"); ("replacement", "replac");
    ("adoption", "adopt"); ("effective", "effect"); ("cease", "ceas");
    ("feed", "feed"); ("bled", "bled"); ("sing", "sing"); ("controlling", "control");
    ("relativity", "rel"); ("probability", "probabl"); ("multimedia", "multimedia");
    ("databases", "databas"); ("retrieval", "retriev"); ("architecture", "architectur");
    ("annotations", "annot"); ("clustering", "cluster"); ("segmentation", "segment");
    ("thesaurus", "thesauru"); ("inference", "infer"); ("probabilistic", "probabilist");
  ]

let test_porter_vectors () =
  List.iter
    (fun (w, expect) -> Alcotest.(check string) ("stem " ^ w) expect (Porter.stem w))
    porter_vectors

let test_porter_short_words () =
  Alcotest.(check string) "1-char" "a" (Porter.stem "a");
  Alcotest.(check string) "2-char" "is" (Porter.stem "is")

let test_porter_lowercases () = Alcotest.(check string) "upper" "cat" (Porter.stem "CATS")

let prop_porter_sane =
  QCheck.Test.make ~name:"stem is non-empty, lowercase, no longer than input" ~count:300
    QCheck.(string_gen_of_size Gen.(int_range 1 12) Gen.(char_range 'a' 'z'))
    (fun w ->
      let s = Porter.stem w in
      String.length s > 0
      && String.length s <= String.length w
      && String.lowercase_ascii s = s)

(* {1 Tokenize / stopwords} *)

let test_tokenize_words () =
  Alcotest.(check (list string)) "words" [ "striped"; "cats"; "42" ]
    (Tokenize.words "Striped, cats: 42!")

let test_tokenize_terms () =
  Alcotest.(check (list string)) "stop + stem" [ "stripe"; "cat" ]
    (Tokenize.terms "the striped cats")

let test_tokenize_no_stem () =
  Alcotest.(check (list string)) "raw" [ "striped"; "cats" ]
    (Tokenize.terms ~stem:false "the striped cats")

let test_tf_bag () =
  Alcotest.(check (list (pair string (float 1e-9)))) "bag"
    [ ("cat", 2.0); ("dog", 1.0) ]
    (Tokenize.tf_bag "cats cat dog the")

let test_stopwords () =
  Alcotest.(check bool) "the" true (Stopwords.is_stopword "The");
  Alcotest.(check bool) "cat" false (Stopwords.is_stopword "cat")

(* {1 Vocab} *)

let test_vocab () =
  let v = Vocab.create () in
  let a = Vocab.intern v "alpha" in
  let b = Vocab.intern v "beta" in
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "next id" 1 b;
  Alcotest.(check int) "intern is idempotent" a (Vocab.intern v "alpha");
  Alcotest.(check (option int)) "find" (Some 1) (Vocab.find v "beta");
  Alcotest.(check (option int)) "find missing" None (Vocab.find v "gamma");
  Alcotest.(check string) "word" "beta" (Vocab.word v 1);
  Alcotest.(check int) "size" 2 (Vocab.size v)

let test_vocab_growth () =
  let v = Vocab.create () in
  for i = 0 to 999 do
    ignore (Vocab.intern v (Printf.sprintf "w%d" i))
  done;
  Alcotest.(check int) "1000 terms" 1000 (Vocab.size v);
  Alcotest.(check string) "w500" "w500" (Vocab.word v 500)

(* {1 Belief} *)

let test_belief_bounds () =
  let b = Belief.belief ~tf:3.0 ~df:2 ~ndocs:100 ~doclen:10.0 ~avg_doclen:10.0 in
  Alcotest.(check bool) "in (0.4, 1)" true (b > 0.4 && b < 1.0)

let test_belief_absent_term () =
  Alcotest.(check (float 1e-9)) "tf=0 gives default" Belief.default_belief
    (Belief.belief ~tf:0.0 ~df:5 ~ndocs:100 ~doclen:10.0 ~avg_doclen:10.0);
  Alcotest.(check (float 1e-9)) "df=0 gives default" Belief.default_belief
    (Belief.belief ~tf:3.0 ~df:0 ~ndocs:100 ~doclen:10.0 ~avg_doclen:10.0);
  Alcotest.(check (float 1e-9)) "empty collection gives default" Belief.default_belief
    (Belief.belief ~tf:3.0 ~df:0 ~ndocs:0 ~doclen:0.0 ~avg_doclen:0.0)

let test_belief_monotone_tf () =
  let b tf = Belief.belief ~tf ~df:5 ~ndocs:100 ~doclen:10.0 ~avg_doclen:10.0 in
  Alcotest.(check bool) "more tf, more belief" true (b 5.0 > b 1.0)

let test_belief_rare_terms_win () =
  let b df = Belief.belief ~tf:2.0 ~df ~ndocs:100 ~doclen:10.0 ~avg_doclen:10.0 in
  Alcotest.(check bool) "rarer term scores higher" true (b 1 > b 50)

let test_belief_long_docs_damped () =
  let b doclen = Belief.belief ~tf:2.0 ~df:5 ~ndocs:100 ~doclen ~avg_doclen:10.0 in
  Alcotest.(check bool) "longer doc, lower belief" true (b 5.0 > b 50.0)

let test_combine_rules () =
  Alcotest.(check (float 1e-9)) "sum is mean" 0.5 (Belief.Combine.sum [ 0.4; 0.6 ]);
  Alcotest.(check (float 1e-9)) "empty sum is default" Belief.default_belief
    (Belief.Combine.sum []);
  Alcotest.(check (float 1e-9)) "and is product" 0.24 (Belief.Combine.and_ [ 0.4; 0.6 ]);
  Alcotest.(check (float 1e-9)) "or" 0.76 (Belief.Combine.or_ [ 0.4; 0.6 ]);
  Alcotest.(check (float 1e-9)) "not" 0.3 (Belief.Combine.not_ 0.7);
  Alcotest.(check (float 1e-9)) "max" 0.6 (Belief.Combine.max [ 0.4; 0.6 ]);
  Alcotest.(check (float 1e-9)) "wsum"
    ((0.4 +. (2.0 *. 0.7)) /. 3.0)
    (Belief.Combine.wsum [ (1.0, 0.4); (2.0, 0.7) ])

let prop_belief_bounded =
  QCheck.Test.make ~name:"belief always in [0.4, 1)" ~count:500
    QCheck.(
      quad (float_range 0.0 50.0) (int_range 0 100) (int_range 0 100) (float_range 0.0 100.0))
    (fun (tf, df, ndocs, doclen) ->
      let b = Belief.belief ~tf ~df ~ndocs ~doclen ~avg_doclen:10.0 in
      b >= Belief.default_belief -. 1e-9 && b < 1.0)

(* {1 Querynet} *)

let test_querynet_flat () =
  let q = Querynet.flat [ "a"; "b" ] in
  Alcotest.(check (list (pair string (float 1e-9)))) "terms" [ ("a", 1.0); ("b", 1.0) ]
    (Querynet.terms q)

let test_querynet_eval () =
  let oracle = function "a" -> 0.8 | "b" -> 0.4 | _ -> 0.0 in
  Alcotest.(check (float 1e-9)) "sum" 0.6 (Querynet.eval oracle (Querynet.flat [ "a"; "b" ]));
  Alcotest.(check (float 1e-9)) "and" 0.32
    (Querynet.eval oracle (Querynet.And [ Querynet.Term ("a", 1.0); Querynet.Term ("b", 1.0) ]));
  Alcotest.(check (float 1e-9)) "weighted sum" ((0.8 +. (3.0 *. 0.4)) /. 4.0)
    (Querynet.eval oracle (Querynet.Sum [ Querynet.Term ("a", 1.0); Querynet.Term ("b", 3.0) ]))

let test_querynet_parse () =
  (match Querynet.of_string "cat dog" with
  | Ok (Querynet.Sum [ Querynet.Term ("cat", 1.0); Querynet.Term ("dog", 1.0) ]) -> ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Querynet.to_string other)
  | Error e -> Alcotest.fail e);
  (match Querynet.of_string "#sum( cat dog^2.5 #and( a b ) #not( c ) )" with
  | Ok
      (Querynet.Sum
        [
          Querynet.Term ("cat", 1.0);
          Querynet.Term ("dog", 2.5);
          Querynet.And [ Querynet.Term ("a", 1.0); Querynet.Term ("b", 1.0) ];
          Querynet.Not (Querynet.Term ("c", 1.0));
        ]) ->
    ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Querynet.to_string other)
  | Error e -> Alcotest.fail e)

let test_querynet_parse_errors () =
  let is_error s = match Querynet.of_string s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "unknown op" true (is_error "#frob( a )");
  Alcotest.(check bool) "missing paren" true (is_error "#sum( a");
  Alcotest.(check bool) "not arity" true (is_error "#not( a b )")

let test_querynet_round_trip () =
  let s = "#sum( cat dog^2.5 #and( a b ) #not( c ) #max( d e ) )" in
  match Querynet.of_string s with
  | Error e -> Alcotest.fail e
  | Ok q -> (
    match Querynet.of_string (Querynet.to_string q) with
    | Error e -> Alcotest.fail e
    | Ok q2 -> Alcotest.(check bool) "round trip" true (q = q2))

(* {1 Space} *)

let test_space_stats () =
  let sp = Space.create "s" in
  let ids = Space.add_doc sp ~doc:0 [ ("cat", 2.0); ("dog", 1.0) ] in
  let _ = Space.add_doc sp ~doc:1 [ ("cat", 1.0) ] in
  Alcotest.(check int) "ndocs" 2 (Space.ndocs sp);
  Alcotest.(check int) "df cat" 2 (Space.df sp (List.nth ids 0));
  Alcotest.(check int) "df dog" 1 (Space.df sp (List.nth ids 1));
  Alcotest.(check (float 1e-9)) "doclen 0" 3.0 (Space.doc_len sp 0);
  Alcotest.(check (float 1e-9)) "avg len" 2.0 (Space.avg_doc_len sp);
  Alcotest.(check bool) "mem" true (Space.mem_doc sp 0);
  Alcotest.(check bool) "not mem" false (Space.mem_doc sp 9)

let test_space_duplicate_doc () =
  let sp = Space.create "s" in
  ignore (Space.add_doc sp ~doc:0 [ ("x", 1.0) ]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Space.add_doc: document 0 already registered in \"s\"") (fun () ->
      ignore (Space.add_doc sp ~doc:0 [ ("y", 1.0) ]))

let test_space_df_counts_docs_not_occurrences () =
  let sp = Space.create "s" in
  let ids = Space.add_doc sp ~doc:0 [ ("cat", 5.0); ("cat2", 1.0) ] in
  ignore ids;
  let id = Option.get (Vocab.find (Space.vocab sp) "cat") in
  Alcotest.(check int) "df 1 despite tf 5" 1 (Space.df sp id)

(* {1 Index + Search} *)

let small_index () =
  let idx = Index.create "lib" in
  Index.add_doc idx ~doc:0 [ ("cat", 2.0); ("stripe", 1.0) ];
  Index.add_doc idx ~doc:1 [ ("dog", 1.0); ("stripe", 1.0) ];
  Index.add_doc idx ~doc:2 [ ("fish", 3.0) ];
  idx

let test_index_postings () =
  let idx = small_index () in
  Alcotest.(check (list (pair int (float 1e-9)))) "stripe postings"
    [ (0, 1.0); (1, 1.0) ]
    (Index.postings idx "stripe");
  Alcotest.(check (list (pair int (float 1e-9)))) "unknown term" [] (Index.postings idx "zz");
  Alcotest.(check (float 1e-9)) "doc_tf" 2.0 (Index.doc_tf idx ~doc:0 ~term:"cat");
  Alcotest.(check (float 1e-9)) "doc_tf absent" 0.0 (Index.doc_tf idx ~doc:1 ~term:"cat");
  Alcotest.(check int) "ndocs" 3 (Index.ndocs idx);
  Alcotest.(check (list int)) "docs in order" [ 0; 1; 2 ] (Index.docs idx)

let test_search_ranks_match_first () =
  let idx = small_index () in
  let hits = Search.run idx (Querynet.flat [ "cat" ]) in
  Alcotest.(check int) "cat doc first" 0 (List.hd hits).Search.doc;
  Alcotest.(check int) "all docs scored" 3 (List.length hits);
  let top = (List.hd hits).Search.score in
  let rest = List.tl hits |> List.map (fun h -> h.Search.score) in
  List.iter (fun s -> Alcotest.(check bool) "descending" true (s <= top)) rest

let test_search_limit () =
  let idx = small_index () in
  Alcotest.(check int) "limit" 2 (List.length (Search.run idx ~limit:2 (Querynet.flat [ "stripe" ])))

let test_search_default_for_nonmatch () =
  let idx = small_index () in
  let hits = Search.run idx (Querynet.flat [ "cat" ]) in
  let doc2 = List.find (fun h -> h.Search.doc = 2) hits in
  Alcotest.(check (float 1e-9)) "non-matching doc gets default" Belief.default_belief
    doc2.Search.score

let test_search_multi_term_beats_single () =
  let idx = small_index () in
  let hits = Search.run idx (Querynet.flat [ "cat"; "stripe" ]) in
  Alcotest.(check int) "doc 0 has both terms" 0 (List.hd hits).Search.doc;
  let d0 = List.hd hits and d1 = List.nth hits 1 in
  Alcotest.(check int) "doc 1 has one term" 1 d1.Search.doc;
  Alcotest.(check bool) "strictly better" true (d0.Search.score > d1.Search.score)

let test_run_indexed_equals_run () =
  let idx = small_index () in
  List.iter
    (fun net ->
      let a = Search.run idx net in
      let b = Search.run_indexed idx net in
      Alcotest.(check int) "same length" (List.length a) (List.length b);
      List.iter2
        (fun x y ->
          Alcotest.(check int) "same doc" x.Search.doc y.Search.doc;
          Alcotest.(check (float 1e-12)) "same score" x.Search.score y.Search.score)
        a b)
    [
      Querynet.flat [ "cat" ];
      Querynet.flat [ "stripe"; "fish" ];
      Querynet.And [ Querynet.Term ("cat", 1.0); Querynet.Term ("stripe", 1.0) ];
      Querynet.Not (Querynet.Term ("dog", 1.0));
      Querynet.flat [ "unknownterm" ];
    ]

let prop_run_indexed_equals_run =
  QCheck.Test.make ~name:"indexed retrieval = exhaustive retrieval" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 8)
           (small_list (QCheck.oneofa [| "a"; "b"; "c"; "d" |])))
        (small_list (QCheck.oneofa [| "a"; "b"; "z" |])))
    (fun (docs, qterms) ->
      let idx = Index.create "p" in
      List.iteri
        (fun i words ->
          Index.add_doc idx ~doc:i (Tokenize.bag_of_words words))
        docs;
      let net = Querynet.flat qterms in
      Search.run idx net = Search.run_indexed idx net)

(* {1 Physical getbl operator} *)

let test_getbl_pairs () =
  let idx = small_index () in
  let sp = Index.space idx in
  let occ_ctx, occ_term, occ_tf, len = Index.to_bats idx ~base:1000 in
  let dom =
    Bat.of_pairs Atom.TOid Atom.TOid
      [ (Atom.Oid 0, Atom.Oid 0); (Atom.Oid 1, Atom.Oid 1); (Atom.Oid 2, Atom.Oid 2) ]
  in
  (* a two-term query attached to every context *)
  let qlink =
    Bat.of_pairs Atom.TOid Atom.TOid
      (List.concat_map
         (fun c -> [ (Atom.Oid (10 + (2 * c)), Atom.Oid c); (Atom.Oid (11 + (2 * c)), Atom.Oid c) ])
         [ 0; 1; 2 ])
  in
  let qval =
    Bat.of_pairs Atom.TOid Atom.TStr
      (List.concat_map
         (fun c -> [ (Atom.Oid (10 + (2 * c)), Atom.Str "cat"); (Atom.Oid (11 + (2 * c)), Atom.Str "zz") ])
         [ 0; 1; 2 ])
  in
  let r = Search.getbl_pairs ~space:sp ~occ_ctx ~occ_term ~occ_tf ~len ~dom
      ~query:(Search.Linked { qlink; qval }) in
  (* |dom| x |query| rows, ctx-major *)
  Alcotest.(check int) "rows" 6 (Bat.count r);
  Alcotest.(check int) "first ctx" 0 (Atom.as_oid (Bat.head_at r 0));
  (* doc 0 matches cat: belief > default; unknown term "zz" gives default *)
  let b_cat = Atom.as_float (Bat.tail_at r 0) in
  let b_zz = Atom.as_float (Bat.tail_at r 1) in
  Alcotest.(check bool) "cat belief above default" true (b_cat > Belief.default_belief);
  Alcotest.(check (float 1e-9)) "unknown term default" Belief.default_belief b_zz;
  (* doc 2 has neither: both defaults *)
  let b20 = Atom.as_float (Bat.tail_at r 4) and b21 = Atom.as_float (Bat.tail_at r 5) in
  Alcotest.(check (float 1e-9)) "doc2 default" Belief.default_belief b20;
  Alcotest.(check (float 1e-9)) "doc2 default 2" Belief.default_belief b21

let test_getbl_agrees_with_oracle () =
  let idx = small_index () in
  let sp = Index.space idx in
  let occ_ctx, occ_term, occ_tf, len = Index.to_bats idx ~base:1000 in
  let dom =
    Bat.of_pairs Atom.TOid Atom.TOid
      [ (Atom.Oid 0, Atom.Oid 0); (Atom.Oid 1, Atom.Oid 1); (Atom.Oid 2, Atom.Oid 2) ]
  in
  let qlink =
    Bat.of_pairs Atom.TOid Atom.TOid
      (List.map (fun c -> (Atom.Oid (10 + c), Atom.Oid c)) [ 0; 1; 2 ])
  in
  let qval =
    Bat.of_pairs Atom.TOid Atom.TStr
      (List.map (fun c -> (Atom.Oid (10 + c), Atom.Str "stripe")) [ 0; 1; 2 ])
  in
  let r = Search.getbl_pairs ~space:sp ~occ_ctx ~occ_term ~occ_tf ~len ~dom
      ~query:(Search.Linked { qlink; qval }) in
  List.iteri
    (fun i doc ->
      let expected = Search.belief_oracle idx ~doc "stripe" in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "doc %d matches oracle" doc)
        expected
        (Atom.as_float (Bat.tail_at r i)))
    [ 0; 1; 2 ]

let test_getbl_empty_query () =
  let idx = small_index () in
  let sp = Index.space idx in
  let occ_ctx, occ_term, occ_tf, len = Index.to_bats idx ~base:0 in
  let dom = Bat.of_pairs Atom.TOid Atom.TOid [ (Atom.Oid 0, Atom.Oid 0) ] in
  let qlink = Bat.empty Atom.TOid Atom.TOid in
  let qval = Bat.empty Atom.TOid Atom.TStr in
  let r = Search.getbl_pairs ~space:sp ~occ_ctx ~occ_term ~occ_tf ~len ~dom
      ~query:(Search.Linked { qlink; qval }) in
  Alcotest.(check int) "no rows" 0 (Bat.count r)

(* {1 The posting-list kernel against the old kernel} *)

module Old = struct
  module Column = Mirror_bat.Column

  (* The old index lived in the space; here it lives beside it. *)
  let indexes = ref []

  module Space = struct
    include Space

    let set_index sp ~heads ~postings = indexes := (sp, (heads, postings)) :: !indexes

    let index sp ~heads =
      match List.assq_opt sp !indexes with Some (h, p) when h == heads -> Some p | _ -> None
  end

  (* Ext_contrep.index_space before the flat postings, verbatim. *)
  let index_space space ~heads docs =
    let postings : (string, (int, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (ctx, bag) ->
        ignore (Space.add_doc space ~doc:ctx bag);
        List.iter
          (fun (term, tf) ->
            let per_ctx =
              match Hashtbl.find_opt postings term with
              | Some h -> h
              | None ->
                let h = Hashtbl.create 8 in
                Hashtbl.add postings term h;
                h
            in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_ctx ctx) in
            Hashtbl.replace per_ctx ctx (prev +. tf))
          bag)
      docs;
    Space.set_index space ~heads ~postings

  (* Search's belief operators before the flat postings, verbatim. *)
  (* {1 Shared machinery for the physical belief operators}

     Per-term resolution: idf is a per-term constant; term frequencies
     come from the space's inverted index when the occurrence BATs are
     physically the indexed base representation, and from a single
     narrowed occurrence scan otherwise.  When the context oids form a
     dense window, per-context state lives in flat arrays. *)

  type ctx_window = { base : int; width : int; dense : bool }

  let window_of dom_heads =
    let n = Array.length dom_heads in
    let min_ctx = ref max_int and max_ctx = ref min_int in
    Array.iter
      (fun c ->
        if c < !min_ctx then min_ctx := c;
        if c > !max_ctx then max_ctx := c)
      dom_heads;
    let dense = n > 0 && !max_ctx - !min_ctx < (4 * n) + 64 in
    { base = !min_ctx; width = (if n = 0 then 0 else !max_ctx - !min_ctx + 1); dense }

  let in_window w c = w.dense && c >= w.base && c - w.base < w.width

  (* (idf, tf_at) per distinct term *)
  let term_entries ~space ~distinct ~occ_ctx ~occ_term ~occ_tf ~window =
    let voc = Space.vocab space in
    let ndocs = Space.ndocs space in
    let term_heads = Column.oid_exn (Bat.head occ_term) in
    let ctx_heads = Column.oid_exn (Bat.head occ_ctx) in
    let tf_heads = Column.oid_exn (Bat.head occ_tf) in
    let postings =
      if term_heads == ctx_heads && term_heads == tf_heads then
        Space.index space ~heads:term_heads
      else None
    in
    let slow_tf =
      lazy
        (let term_tails =
           match Bat.tail occ_term with
           | Column.S a -> a
           | _ -> invalid_arg "belief operator: term column"
         in
         let interesting = Hashtbl.create 64 in
         Array.iteri
           (fun i occ ->
             if Hashtbl.mem distinct term_tails.(i) then
               Hashtbl.replace interesting occ term_tails.(i))
           term_heads;
         let tf_tails = Column.float_exn (Bat.tail occ_tf) in
         let tf_of = Hashtbl.create (Hashtbl.length interesting) in
         Array.iteri
           (fun i occ ->
             if Hashtbl.mem interesting occ then Hashtbl.replace tf_of occ tf_tails.(i))
           tf_heads;
         let ctx_tails = Column.oid_exn (Bat.tail occ_ctx) in
         let tf_ctx_term = Hashtbl.create (Hashtbl.length interesting) in
         Array.iteri
           (fun i occ ->
             match Hashtbl.find_opt interesting occ with
             | None -> ()
             | Some term ->
               let tf = Option.value ~default:0.0 (Hashtbl.find_opt tf_of occ) in
               let key = (ctx_tails.(i), term) in
               let prev = Option.value ~default:0.0 (Hashtbl.find_opt tf_ctx_term key) in
               Hashtbl.replace tf_ctx_term key (prev +. tf))
           ctx_heads;
         tf_ctx_term)
    in
    let entries = Hashtbl.create 16 in
    Hashtbl.iter
      (fun term () ->
        let idf =
          match Vocab.find voc term with
          | None -> 0.0
          | Some id -> Belief.idf_part ~df:(Space.df space id) ~ndocs
        in
        let tf_at =
          match postings with
          | Some idx -> (
            match Hashtbl.find_opt idx term with
            | None -> fun _ -> 0.0
            | Some per_ctx ->
              if window.dense then begin
                let arr = Array.make window.width 0.0 in
                Hashtbl.iter
                  (fun c tf -> if in_window window c then arr.(c - window.base) <- tf)
                  per_ctx;
                fun c -> if in_window window c then arr.(c - window.base) else 0.0
              end
              else fun c -> Option.value ~default:0.0 (Hashtbl.find_opt per_ctx c))
          | None ->
            let tbl = Lazy.force slow_tf in
            fun c -> Option.value ~default:0.0 (Hashtbl.find_opt tbl (c, term))
        in
        Hashtbl.replace entries term (idf, tf_at))
      distinct;
    entries

  let doclen_at ~len ~window =
    let len_heads = Column.oid_exn (Bat.head len) in
    let len_tails = Column.float_exn (Bat.tail len) in
    if window.dense then begin
      let arr = Array.make window.width 0.0 in
      Array.iteri
        (fun i c -> if in_window window c then arr.(c - window.base) <- len_tails.(i))
        len_heads;
      fun c -> if in_window window c then arr.(c - window.base) else 0.0
    end
    else begin
      let tbl = Hashtbl.create (Array.length len_heads) in
      Array.iteri (fun i c -> Hashtbl.replace tbl c len_tails.(i)) len_heads;
      fun c -> Option.value ~default:0.0 (Hashtbl.find_opt tbl c)
    end

  let getbl_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~qlink ~qval =
    let dom_heads = Column.oid_exn (Bat.head dom) in
    let window = window_of dom_heads in
    (* distinct query terms *)
    let qval_heads = Column.oid_exn (Bat.head qval) in
    let qval_tails =
      match Bat.tail qval with Column.S a -> a | _ -> invalid_arg "getbl: query column"
    in
    let term_name_of_qelem = Hashtbl.create (Array.length qval_heads) in
    let distinct = Hashtbl.create 16 in
    Array.iteri
      (fun i qelem ->
        Hashtbl.replace term_name_of_qelem qelem qval_tails.(i);
        Hashtbl.replace distinct qval_tails.(i) ())
      qval_heads;
    let entry_of_term = term_entries ~space ~distinct ~occ_ctx ~occ_term ~occ_tf ~window in
    (* per-context query entry lists, in qlink row order.  The common
       case — a compiled query literal — produces qlink and qval rows
       that are positionally aligned (same fresh oid sequence), so the
       per-qelem indirection disappears entirely. *)
    let qlink_heads = Column.oid_exn (Bat.head qlink) in
    let qlink_tails = Column.oid_exn (Bat.tail qlink) in
    let aligned =
      Array.length qlink_heads = Array.length qval_heads
      && (qlink_heads == qval_heads
         ||
         let ok = ref true in
         let i = ref 0 in
         while !ok && !i < Array.length qlink_heads do
           if qlink_heads.(!i) <> qval_heads.(!i) then ok := false;
           incr i
         done;
         !ok)
    in
    let entry_at =
      if aligned then fun i -> Hashtbl.find_opt entry_of_term qval_tails.(i)
      else begin
        let entry_of_qelem = Hashtbl.create (Hashtbl.length term_name_of_qelem) in
        Hashtbl.iter
          (fun qelem term ->
            Hashtbl.replace entry_of_qelem qelem (Hashtbl.find entry_of_term term))
          term_name_of_qelem;
        fun i -> Hashtbl.find_opt entry_of_qelem qlink_heads.(i)
      end
    in
    let queries_dense = if window.dense then Array.make window.width [] else [||] in
    let queries_tbl = Hashtbl.create (if window.dense then 1 else 64) in
    for i = Array.length qlink_heads - 1 downto 0 do
      match entry_at i with
      | None -> ()
      | Some entry ->
        let c = qlink_tails.(i) in
        if in_window window c then
          queries_dense.(c - window.base) <- entry :: queries_dense.(c - window.base)
        else if not window.dense then
          Hashtbl.replace queries_tbl c
            (entry :: Option.value ~default:[] (Hashtbl.find_opt queries_tbl c))
    done;
    let query_at c =
      if window.dense then (if in_window window c then queries_dense.(c - window.base) else [])
      else Option.value ~default:[] (Hashtbl.find_opt queries_tbl c)
    in
    let len_at = doclen_at ~len ~window in
    let avg = Space.avg_doc_len space in
    (* scoring is a pure map over contexts: every table the closures
       above consult is fully built (the slow-tf lazy is forced inside
       [term_entries]) and read-only from here on, so when the executor
       runs this operator under a domain pool the context scan morsels
       across domains, each range building private columns that are
       concatenated in morsel order — bitwise the sequential output *)
    let score_range lo hi =
      let ctxb = Column.Builder.create Atom.TOid in
      let belb = Column.Builder.create Atom.TFlt in
      for k = lo to hi - 1 do
        let c = dom_heads.(k) in
        let doclen = len_at c in
        List.iter
          (fun (idf, tf_at) ->
            let tf_part = Belief.tf_part ~tf:(tf_at c) ~doclen ~avg_doclen:avg in
            let b = Belief.default_belief +. (Belief.belief_weight *. tf_part *. idf) in
            Column.Builder.add_oid ctxb c;
            Column.Builder.add_float belb b)
          (query_at c)
      done;
      ( Column.oid_exn (Column.Builder.finish ctxb),
        Column.float_exn (Column.Builder.finish belb) )
    in
    let parts = Mirror_bat.Parkernel.ranges (Array.length dom_heads) score_range in
    Bat.make
      (Column.O (Array.concat (List.map fst (Array.to_list parts))))
      (Column.F (Array.concat (List.map snd (Array.to_list parts))))

  let getblnet_pairs ~space ~net ~occ_ctx ~occ_term ~occ_tf ~len ~dom =
    let dom_heads = Column.oid_exn (Bat.head dom) in
    let window = window_of dom_heads in
    let distinct = Hashtbl.create 16 in
    List.iter (fun (term, _) -> Hashtbl.replace distinct term ()) (Querynet.terms net);
    let entry_of_term = term_entries ~space ~distinct ~occ_ctx ~occ_term ~occ_tf ~window in
    let len_at = doclen_at ~len ~window in
    let avg = Space.avg_doc_len space in
    let ctxb = Column.Builder.create Atom.TOid in
    let belb = Column.Builder.create Atom.TFlt in
    Array.iter
      (fun c ->
        let doclen = len_at c in
        let oracle term =
          match Hashtbl.find_opt entry_of_term term with
          | None -> Belief.default_belief
          | Some (idf, tf_at) ->
            let tf_part = Belief.tf_part ~tf:(tf_at c) ~doclen ~avg_doclen:avg in
            Belief.default_belief +. (Belief.belief_weight *. tf_part *. idf)
        in
        Column.Builder.add_oid ctxb c;
        Column.Builder.add_float belb (Querynet.eval oracle net))
      dom_heads;
    Bat.make (Column.Builder.finish ctxb) (Column.Builder.finish belb)
end


module Column = Mirror_bat.Column
module Parkernel = Mirror_bat.Parkernel
module Prng = Mirror_util.Prng

let words = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

type corpus = {
  space : Space.t;  (** holds the new index *)
  old_space : Space.t;  (** the same statistics, with the old index *)
  occ : Bat.t * Bat.t * Bat.t;  (** the base representation: one head column *)
  len : Bat.t;
  years : Bat.t;  (** ctx -> int, for select-filtered domains *)
  ctxs : int list;
}

(* A CONTREP base representation laid out as [materialize] lays it out:
   contexts in a dense window (with gaps) or spread sparsely, bags with
   repeated terms, fractional and zero tfs, and empty bags. *)
let corpus g ~sparse =
  let ndocs = Prng.int g 30 in
  let ctxs =
    List.init ndocs (fun i -> if sparse then 5 + (i * 1000) + Prng.int g 900 else 40 + (2 * i))
  in
  let tf () =
    match Prng.int g 4 with 0 -> 0.0 | 1 -> Prng.float g 3.0 | _ -> Float.of_int (1 + Prng.int g 3)
  in
  let docs =
    List.map (fun c -> (c, List.init (Prng.int g 6) (fun _ -> (Prng.choose g words, tf ())))) ctxs
  in
  let space = Space.create "s" and old_space = Space.create "s" in
  List.iter (fun (c, bag) -> ignore (Space.add_doc space ~doc:c bag)) docs;
  let rows = List.concat_map (fun (c, bag) -> List.map (fun (t, f) -> (c, t, f)) bag) docs in
  let heads = Column.O (Array.of_list (List.mapi (fun i _ -> 10_000 + i) rows)) in
  let occ_ctx = Bat.make heads (Column.O (Array.of_list (List.map (fun (c, _, _) -> c) rows))) in
  let occ_term = Bat.make heads (Column.S (Array.of_list (List.map (fun (_, t, _) -> t) rows))) in
  let occ_tf = Bat.make heads (Column.F (Array.of_list (List.map (fun (_, _, f) -> f) rows))) in
  let len =
    Bat.of_pairs Atom.TOid Atom.TFlt
      (List.map (fun c -> (Atom.Oid c, Atom.Flt (Space.doc_len space c))) ctxs)
  in
  Search.index_occurrences space ~occ_ctx ~occ_term ~occ_tf ~len;
  Old.index_space old_space ~heads:(Column.oid_exn heads) docs;
  let years =
    Bat.of_pairs Atom.TOid Atom.TInt
      (List.map (fun c -> (Atom.Oid c, Atom.Int (Prng.int g 4))) ctxs)
  in
  { space; old_space; occ = (occ_ctx, occ_term, occ_tf); len; years; ctxs }

(* The same occurrences with private head columns: not the base
   representation, so both kernels scan. *)
let rebuilt (occ_ctx, occ_term, occ_tf) =
  let copy b = Bat.make (Column.O (Array.copy (Column.oid_exn (Bat.head b)))) (Bat.tail b) in
  (copy occ_ctx, copy occ_term, copy occ_tf)

let oids l = Bat.of_pairs Atom.TOid Atom.TOid (List.map (fun c -> (Atom.Oid c, Atom.Oid c)) l)

(* all contexts, a select-filtered subset, nothing, all twice, or all
   out of order *)
let domain g k =
  match Prng.int g 5 with
  | 0 -> oids k.ctxs
  | 1 -> Bat.mirror (Bat.select_cmp k.years Bat.Ge (Atom.Int (Prng.int g 4)))
  | 2 -> oids []
  | 3 -> oids (k.ctxs @ List.filter (fun _ -> Prng.bool g) k.ctxs)
  | _ ->
    let a = Array.of_list k.ctxs in
    Prng.shuffle g a;
    oids (Array.to_list a)

(* query terms: repeats, and terms missing from the vocabulary *)
let query_terms g =
  List.init (Prng.int g 5) (fun _ -> if Prng.int g 5 = 0 then "zz" else Prng.choose g words)

(* A compiled literal gives positionally aligned qlink/qval with a copy
   of the terms per context; the other shapes permute qval, drop qlink
   rows, link qelems qval does not have, keep qlink and qval aligned
   but not context-major, or give a qelem two terms in qval. *)
let query_bats g ~dom terms =
  let next = ref 500_000 in
  let rows =
    List.concat_map
      (fun c ->
        List.map
          (fun t ->
            incr next;
            (!next, c, t))
          terms)
      (List.sort_uniq Int.compare (List.map Atom.as_oid (List.map fst (Bat.to_pairs dom))))
  in
  let link rows =
    Bat.of_pairs Atom.TOid Atom.TOid (List.map (fun (q, c, _) -> (Atom.Oid q, Atom.Oid c)) rows)
  in
  let vals rows =
    Bat.of_pairs Atom.TOid Atom.TStr (List.map (fun (q, _, t) -> (Atom.Oid q, Atom.Str t)) rows)
  in
  match Prng.int g 6 with
  | 0 -> (link rows, vals rows)
  | 1 ->
    let a = Array.of_list rows in
    Prng.shuffle g a;
    (link rows, vals (Array.to_list a))
  | 2 -> (link (List.filter (fun _ -> Prng.bool g) rows), vals rows)
  | 3 ->
    let dangling = match rows with (_, c, _) :: _ -> [ (900_000, c, "a") ] | [] -> [] in
    (link (dangling @ rows), vals (List.filter (fun _ -> Prng.bool g) rows))
  | 4 ->
    let a = Array.of_list rows in
    Prng.shuffle g a;
    (link (Array.to_list a), vals (Array.to_list a))
  | _ ->
    let relabelled =
      List.filter_map
        (fun (q, c, _) -> if Prng.bool g then Some (q, c, Prng.choose g words) else None)
        rows
    in
    (link rows, vals (rows @ relabelled))

let bits b = Array.map Int64.bits_of_float (Column.float_exn (Bat.tail b))

let check_same what expected actual =
  Alcotest.(check (array int)) (what ^ ": contexts")
    (Column.oid_exn (Bat.head expected)) (Column.oid_exn (Bat.head actual));
  Alcotest.(check (array int64)) (what ^ ": belief bits") (bits expected) (bits actual)

let random_net g terms =
  let leaf () = Querynet.Term (List.nth terms (Prng.int g (List.length terms)), 1.0) in
  let rec net d =
    if d = 0 then leaf ()
    else
      let kids () = List.init (1 + Prng.int g 3) (fun _ -> net (d - 1)) in
      match Prng.int g 6 with
      | 0 -> Querynet.Sum (kids ())
      | 1 -> Querynet.And (kids ())
      | 2 -> Querynet.Or (kids ())
      | 3 -> Querynet.Not (net (d - 1))
      | 4 -> Querynet.Wsum (List.map (fun k -> (Prng.float g 2.0, k)) (kids ()))
      | _ -> Querynet.Max (kids ())
  in
  if terms = [] then Querynet.flat [] else net (Prng.int g 3)

(* One seeded case: both kernels on the base representation and on
   rebuilt occurrences, getBL and getBLnet. *)
let differential_case seed =
  let g = Prng.create seed in
  let k = corpus g ~sparse:(seed mod 3 = 0) in
  let dom = domain g k in
  let terms = query_terms g in
  let qlink, qval = query_bats g ~dom terms in
  let net = random_net g terms in
  let len = k.len in
  List.iter
    (fun (path, (occ_ctx, occ_term, occ_tf)) ->
      let what = Printf.sprintf "seed %d, %s" seed path in
      check_same (what ^ ", getBL")
        (Old.getbl_pairs ~space:k.old_space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~qlink ~qval)
        (Search.getbl_pairs ~space:k.space ~occ_ctx ~occ_term ~occ_tf ~len ~dom
           ~query:(Search.Linked { qlink; qval }));
      (* a query literal: broadcast once, and replicated per context
         the way its compiled plan used to build it *)
      let lit = Bat.of_pairs Atom.TOid Atom.TStr (List.map (fun t -> (Atom.Oid 0, Atom.Str t)) terms) in
      let cross = Bat.join (Bat.project dom (Atom.Oid 0)) lit in
      let qlink = Bat.number_head cross 700_000 and qval = Bat.number_tail cross 700_000 in
      check_same (what ^ ", getBL of a literal")
        (Search.getbl_pairs ~space:k.space ~occ_ctx ~occ_term ~occ_tf ~len ~dom
           ~query:(Search.Linked { qlink; qval }))
        (Search.getbl_pairs ~space:k.space ~occ_ctx ~occ_term ~occ_tf ~len ~dom
           ~query:(Search.Broadcast lit));
      check_same (what ^ ", getBLnet")
        (Old.getblnet_pairs ~space:k.old_space ~net ~occ_ctx ~occ_term ~occ_tf ~len ~dom)
        (Search.getblnet_pairs ~space:k.space ~net ~occ_ctx ~occ_term ~occ_tf ~len ~dom))
    [ ("indexed", k.occ); ("scanned", rebuilt k.occ) ]

let test_kernel_differential () =
  for seed = 1 to 400 do
    differential_case seed
  done

let test_kernel_differential_pool () =
  Parkernel.set_min_rows 0;
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      Parkernel.with_morsel_size 3 (fun () ->
          Parkernel.with_pool pool (fun () ->
              for seed = 1 to 150 do
                differential_case seed
              done));
      Alcotest.(check bool) "the scans were split into morsels" true
        ((Parkernel.totals pool).Parkernel.t_morsels > 0))

(* Only the rebuilt occurrences are scanned, and each scan is counted. *)
let test_scans_counted () =
  let k = corpus (Prng.create 7) ~sparse:false in
  let dom = oids k.ctxs in
  let qlink, qval = query_bats (Prng.create 1) ~dom [ "a"; "b" ] in
  let scans occ =
    let before = Space.scans k.space in
    let occ_ctx, occ_term, occ_tf = occ in
    let len = k.len in
    ignore
      (Search.getbl_pairs ~space:k.space ~occ_ctx ~occ_term ~occ_tf ~len ~dom
         ~query:(Search.Linked { qlink; qval }));
    ignore
      (Search.getblnet_pairs ~space:k.space ~net:(Querynet.flat [ "a" ]) ~occ_ctx ~occ_term
         ~occ_tf ~len ~dom);
    Space.scans k.space - before
  in
  Alcotest.(check int) "base representation: no scan" 0 (scans k.occ);
  Alcotest.(check int) "rebuilt occurrences: one scan per operator" 2 (scans (rebuilt k.occ))
let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mirror_ir"
    [
      ( "porter",
        [
          Alcotest.test_case "reference vectors" `Quick test_porter_vectors;
          Alcotest.test_case "short words unchanged" `Quick test_porter_short_words;
          Alcotest.test_case "lowercases" `Quick test_porter_lowercases;
        ] );
      ( "tokenize",
        [
          Alcotest.test_case "words" `Quick test_tokenize_words;
          Alcotest.test_case "terms (stop + stem)" `Quick test_tokenize_terms;
          Alcotest.test_case "terms without stemming" `Quick test_tokenize_no_stem;
          Alcotest.test_case "tf bag" `Quick test_tf_bag;
          Alcotest.test_case "stopwords" `Quick test_stopwords;
        ] );
      ( "vocab",
        [
          Alcotest.test_case "basics" `Quick test_vocab;
          Alcotest.test_case "growth" `Quick test_vocab_growth;
        ] );
      ( "belief",
        [
          Alcotest.test_case "bounds" `Quick test_belief_bounds;
          Alcotest.test_case "absent term defaults" `Quick test_belief_absent_term;
          Alcotest.test_case "monotone in tf" `Quick test_belief_monotone_tf;
          Alcotest.test_case "rare terms win" `Quick test_belief_rare_terms_win;
          Alcotest.test_case "long docs damped" `Quick test_belief_long_docs_damped;
          Alcotest.test_case "combination rules" `Quick test_combine_rules;
        ] );
      ( "querynet",
        [
          Alcotest.test_case "flat" `Quick test_querynet_flat;
          Alcotest.test_case "eval" `Quick test_querynet_eval;
          Alcotest.test_case "parse" `Quick test_querynet_parse;
          Alcotest.test_case "parse errors" `Quick test_querynet_parse_errors;
          Alcotest.test_case "print/parse round-trip" `Quick test_querynet_round_trip;
        ] );
      ( "space",
        [
          Alcotest.test_case "statistics" `Quick test_space_stats;
          Alcotest.test_case "duplicate doc rejected" `Quick test_space_duplicate_doc;
          Alcotest.test_case "df semantics" `Quick test_space_df_counts_docs_not_occurrences;
        ] );
      ( "search",
        [
          Alcotest.test_case "postings" `Quick test_index_postings;
          Alcotest.test_case "match ranks first" `Quick test_search_ranks_match_first;
          Alcotest.test_case "limit" `Quick test_search_limit;
          Alcotest.test_case "non-match gets default" `Quick test_search_default_for_nonmatch;
          Alcotest.test_case "two terms beat one" `Quick test_search_multi_term_beats_single;
          Alcotest.test_case "indexed = exhaustive" `Quick test_run_indexed_equals_run;
        ] );
      ( "getbl",
        [
          Alcotest.test_case "pair layout and defaults" `Quick test_getbl_pairs;
          Alcotest.test_case "agrees with oracle" `Quick test_getbl_agrees_with_oracle;
          Alcotest.test_case "empty query" `Quick test_getbl_empty_query;
          Alcotest.test_case "postings kernel = old kernel, bitwise" `Quick
            test_kernel_differential;
          Alcotest.test_case "postings kernel = old kernel, 2-domain pool" `Quick
            test_kernel_differential_pool;
          Alcotest.test_case "occurrence scans are counted" `Quick test_scans_counted;
        ] );
      ("properties", qc [ prop_porter_sane; prop_belief_bounded; prop_run_indexed_equals_run ]);
    ]
