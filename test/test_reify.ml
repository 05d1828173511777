(* Reification from the reifier's shared per-plan indexes.

   Extension [reify]s used to rebuild their payload hash tables and scan
   the whole occurrence BAT once per context, which made reopening a
   store quadratic.  They now read [members]/[atom] from {!Eval}'s
   reifier.  This suite keeps the old CONTREP and LIST bodies verbatim
   as an oracle and checks that both give the same values, in the same
   bag and list order; that a missing occurrence payload now fails
   loudly (the old bodies dropped it); that a damaged snapshot fails to
   load, naming the extent; and that reopening scales linearly. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Mil = Mirror_bat.Mil
module Catalog = Mirror_bat.Catalog
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Shape = Mirror_core.Shape
module Storage = Mirror_core.Storage
module Eval = Mirror_core.Eval
module Flatten = Mirror_core.Flatten
module Parser = Mirror_core.Parser
module Snapshot = Mirror_store.Snapshot
module Record = Mirror_store.Record
module Extension = Mirror_core.Extension
module Bootstrap = Mirror_core.Bootstrap
module Durable = Mirror_store.Durable
module Prng = Mirror_util.Prng

let () = Bootstrap.ensure ()
let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "mirror-reify" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* {1 The oracle} *)

module Old = struct
  (* Ext_contrep.reify before it read the shared indexes, verbatim. *)
  let contrep_reify ~lookup ~recurse:_ ~meta ~bats ~subs:_ ~ctx =
    match bats with
    | [ ctx_p; term_p; tf_p; _len_p ] ->
      let ctx_bat = lookup ctx_p and term_bat = lookup term_p and tf_bat = lookup tf_p in
      let term_of = Hashtbl.create (Bat.count term_bat) in
      Bat.iter (fun o t -> Hashtbl.replace term_of (Atom.as_oid o) (Atom.as_string t)) term_bat;
      let tf_of = Hashtbl.create (Bat.count tf_bat) in
      Bat.iter (fun o f -> Hashtbl.replace tf_of (Atom.as_oid o) (Atom.as_float f)) tf_bat;
      let bag = ref [] in
      Bat.iter
        (fun o c ->
          if Atom.as_oid c = ctx then
            match
              (Hashtbl.find_opt term_of (Atom.as_oid o), Hashtbl.find_opt tf_of (Atom.as_oid o))
            with
            | Some term, Some tf -> bag := (term, tf) :: !bag
            | _ -> ())
        ctx_bat;
      Value.contrep ?space:(match meta with s :: _ -> Some s | [] -> None) (List.rev !bag)
    | _ -> invalid_arg "CONTREP.reify: malformed bundle"

  (* Ext_list.reify before it read the shared indexes, verbatim. *)
  let list_reify ~lookup ~recurse ~meta:_ ~bats ~subs ~ctx =
    match (bats, subs) with
    | [ link; pos ], [ elem ] ->
      let link_bat = lookup link and pos_bat = lookup pos in
      let pos_of = Hashtbl.create (Bat.count pos_bat) in
      Bat.iter (fun e p -> Hashtbl.replace pos_of (Atom.as_oid e) (Atom.as_int p)) pos_bat;
      let members = ref [] in
      Bat.iter
        (fun e parent -> if Atom.as_oid parent = ctx then members := Atom.as_oid e :: !members)
        link_bat;
      let ordered =
        List.sort
          (fun a b ->
            Int.compare
              (Option.value ~default:max_int (Hashtbl.find_opt pos_of a))
              (Option.value ~default:max_int (Hashtbl.find_opt pos_of b)))
          (List.rev !members)
      in
      Value.vlist (List.map (fun e -> recurse elem e) ordered)
    | _ -> invalid_arg "LIST.reify: malformed bundle"

  (* Kernel structures by plain scans: the first tail of an atomic
     head, and a set's members in link row order. *)
  let rec reify_at lookup shape ctx =
    match shape with
    | Shape.Atomic plan ->
      let bat = lookup plan in
      let rec first i =
        if i >= Bat.count bat then Alcotest.failf "oracle: no value for @%d" ctx
        else if Atom.as_oid (Bat.head_at bat i) = ctx then Value.Atom (Bat.tail_at bat i)
        else first (i + 1)
      in
      first 0
    | Shape.Tuple fields -> Value.Tup (List.map (fun (l, s) -> (l, reify_at lookup s ctx)) fields)
    | Shape.Set { link; elem } ->
      let members = ref [] in
      Bat.iter
        (fun e parent -> if Atom.as_oid parent = ctx then members := Atom.as_oid e :: !members)
        (lookup link);
      Value.VSet (List.rev_map (fun e -> reify_at lookup elem e) !members)
    | Shape.Xstruct { ext = "CONTREP"; meta; bats; subs } ->
      contrep_reify ~lookup ~recurse:(reify_at lookup) ~meta ~bats ~subs ~ctx
    | Shape.Xstruct { ext = "LIST"; meta; bats; subs } ->
      list_reify ~lookup ~recurse:(reify_at lookup) ~meta ~bats ~subs ~ctx
    | Shape.Xstruct { ext; _ } -> Alcotest.failf "oracle: no reify for %s" ext

  let reify ~lookup shape = reify_at lookup shape 0
end

(* Same value, and the same order: [Value.equal] compares sets and
   CONTREP bags as multisets, the rendering does not. *)
let check_same what expected actual =
  if not (Value.equal expected actual) then
    Alcotest.failf "%s: values differ\n old: %s\n new: %s" what (Value.to_string expected)
      (Value.to_string actual);
  Alcotest.(check string) (what ^ " (order)") (Value.to_string expected) (Value.to_string actual)

let session st =
  Mil.session ~foreign:(Extension.foreign_dispatch (Storage.eval_env st)) (Storage.catalog st)

let check_shape what st shape =
  let lookup = Mil.exec (session st) in
  check_same what (Old.reify ~lookup shape) (Eval.reify ~lookup shape)

(* {1 Seeded extents} *)

let contrep_t = Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ])

(* T : SET< TUPLE< k:int, c:CONTREP, xs:LIST<int>, cs:LIST<CONTREP> > > *)
let t_type =
  Types.Set
    (Types.Tuple
       [
         ("k", Types.Atomic Atom.TInt);
         ("c", contrep_t);
         ("xs", Types.Xt ("LIST", [ Types.Atomic Atom.TInt ]));
         ("cs", Types.Xt ("LIST", [ contrep_t ]));
       ])

(* Empty bags and lists are as likely as short ones; terms repeat
   within a bag (Value.contrep sums them) and across documents. *)
let gen_rows g =
  let terms = [| "cat"; "dog"; "stripe"; "sky" |] in
  let bag () =
    List.init (Prng.int g 4) (fun _ -> (Prng.choose g terms, Float.of_int (1 + Prng.int g 3)))
  in
  List.init (Prng.int g 8) (fun _ ->
      Value.Tup
        [
          ("k", Value.int (Prng.int g 6));
          ("c", Value.contrep (bag ()));
          ("xs", Value.vlist (List.init (Prng.int g 4) (fun _ -> Value.int (Prng.int g 9))));
          ("cs", Value.vlist (List.init (Prng.int g 3) (fun _ -> Value.contrep (bag ()))));
        ])

let storage_of rows =
  let st = Storage.create () in
  ok (Storage.define st ~name:"T" t_type);
  ignore (ok (Storage.load st ~name:"T" rows));
  st

(* Query results hold filtered domains (CONTREP's filter_flat keeps
   the occurrence BATs and shrinks the domain; LIST's semijoins its
   link), rebased bundles, and ranked lists whose link row order is
   not their position order. *)
let queries =
  [
    "T";
    "select[THIS.k > 2](T)";
    "select[THIS.k < 4](select[THIS.k > 0](T))";
    "map[THIS.c](select[THIS.k = 1 or THIS.k = 3](T))";
    "map[THIS.cs](select[THIS.k >= 2](T))";
    "map[tuple(k: THIS.k, xs: THIS.xs)](select[THIS.k <> 5](T))";
    "tolist_desc(map[tuple(k: THIS.k, c: THIS.c)](T), 'k')";
    "take(tolist(select[THIS.k > 1](T), 'k'), 3)";
    "flatten(map[toset(THIS.cs)](T))";
  ]

let test_oracle_seeded () =
  for seed = 1 to 25 do
    let st = storage_of (gen_rows (Prng.create seed)) in
    List.iter
      (fun src ->
        let expr = ok (Parser.parse_expr src) in
        let shape = Shape.map Mirror_bat.Milopt.rewrite (Flatten.compile st expr) in
        check_shape (Printf.sprintf "seed %d: %s" seed src) st shape)
      queries
  done

let test_oracle_empty () =
  let st = storage_of [] in
  check_shape "empty extent" st (Option.get (Storage.extent_shape st "T"));
  let empties =
    [
      Value.Tup
        [
          ("k", Value.int 0);
          ("c", Value.contrep []);
          ("xs", Value.vlist []);
          ("cs", Value.vlist [ Value.contrep [] ]);
        ];
    ]
  in
  let st = storage_of empties in
  check_shape "empty bag, empty list, list of an empty bag" st
    (Option.get (Storage.extent_shape st "T"))

(* A hand-built CONTREP bundle under a set link: contexts interleave
   in the occurrence BATs and a term repeats within one context, which
   stored extents (materialised from merged bags) never produce. *)
let occurrences =
  [ (100, 1, "cat", 1.0); (101, 2, "dog", 2.0); (102, 1, "cat", 3.0); (103, 1, "sky", 1.0);
    (104, 3, "dog", 1.0); (105, 2, "cat", 0.5) ]

let hand_built ?(drop_term = -1) () =
  let cat = Catalog.create () in
  let oid o = Atom.Oid o in
  let bat tty f rows = Bat.of_pairs Atom.TOid tty (List.filter_map f rows) in
  let occ f = bat Atom.TOid f occurrences in
  Catalog.put cat "L" (bat Atom.TOid (fun c -> Some (oid c, oid 0)) [ 1; 2; 3; 4 ]);
  Catalog.put cat "C#ctx" (occ (fun (o, c, _, _) -> Some (oid o, oid c)));
  Catalog.put cat "C#term"
    (bat Atom.TStr
       (fun (o, _, t, _) -> if o = drop_term then None else Some (oid o, Atom.Str t))
       occurrences);
  Catalog.put cat "C#tf" (bat Atom.TFlt (fun (o, _, _, f) -> Some (oid o, Atom.Flt f)) occurrences);
  Catalog.put cat "C#len" (bat Atom.TFlt (fun c -> Some (oid c, Atom.Flt 0.0)) [ 1; 2; 3; 4 ]);
  let get n = Mil.Get n in
  let shape =
    Shape.Set
      {
        link = get "L";
        elem =
          Shape.Xstruct
            {
              ext = "CONTREP";
              meta = [];
              bats = [ get "C#ctx"; get "C#term"; get "C#tf"; get "C#len" ];
              subs = [];
            };
      }
  in
  (Mil.exec (Mil.session cat), shape)

let test_oracle_repeated_terms () =
  let lookup, shape = hand_built () in
  let v = Eval.reify ~lookup shape in
  check_same "interleaved contexts, repeated term" (Old.reify ~lookup shape) v;
  Alcotest.(check string) "the repeat is summed, in first-occurrence order"
    {|{CONTREP[<term: "cat", tf: 4>, <term: "sky", tf: 1>], CONTREP[<term: "dog", tf: 2>, <term: "cat", tf: 0.5>], CONTREP[<term: "dog", tf: 1>], CONTREP[]}|}
    (Value.to_string v)

(* {1 A missing occurrence payload fails loudly} *)

let check_mentions what ~needles msg =
  List.iter
    (fun needle ->
      if not (contains ~needle msg) then Alcotest.failf "%s: %S does not mention %S" what msg needle)
    needles

let test_missing_payload_fails () =
  let lookup, shape = hand_built ~drop_term:103 () in
  (* the old body dropped the word silently *)
  Alcotest.(check bool) "old reify lost 'sky'" false
    (contains ~needle:"sky" (Value.to_string (Old.reify ~lookup shape)));
  match Eval.reify ~lookup shape with
  | v -> Alcotest.failf "new reify returned %s" (Value.to_string v)
  | exception Failure msg ->
    check_mentions "new reify" ~needles:[ "reify: no value for context @103" ] msg

(* Rewrite the rows of T's [Replace] record in a snapshot file,
   keeping the framing and the end marker intact. *)
let damage_rows file f =
  let records = ok (Snapshot.read file) in
  Snapshot.write file
    (List.map
       (function Record.Replace ("T", rows) -> Record.Replace ("T", f rows) | r -> r)
       records)

(* Map the first row's CONTREP occurrences. *)
let damage_first_bag f = function
  | Value.Tup fields :: rest ->
    Value.Tup
      (List.map
         (function
           | "c", Value.Xv x -> ("c", Value.Xv { x with items = f x.items })
           | field -> field)
         fields)
    :: rest
  | _ -> Alcotest.fail "no row to damage"

(* One occurrence's term re-typed: the rows no longer fit T's type. *)
let retype_first_term =
  damage_first_bag (function
    | Value.Tup [ ("term", _); tf ] :: rest -> Value.Tup [ ("term", Value.int 7); tf ] :: rest
    | _ -> Alcotest.fail "no occurrence to damage")

let drop_field label = function
  | Value.Tup fields :: rest -> Value.Tup (List.remove_assoc label fields) :: rest
  | _ -> Alcotest.fail "no row to damage"

let one_row =
  [
    Value.Tup
      [
        ("k", Value.int 1);
        ("c", Value.contrep [ ("cat", 1.0); ("dog", 2.0) ]);
        ("xs", Value.vlist []);
        ("cs", Value.vlist []);
      ];
  ]

(* A snapshot whose rows do not fit the extent's type is refused by
   the redo that rebuilds the extent, and the error names it. *)
let test_damaged_term_is_an_error () =
  List.iter
    (fun (what, f, needles) ->
      with_temp_dir (fun dir ->
          ok (Snapshot.save (storage_of one_row) ~dir);
          damage_rows (Filename.concat dir "snapshot") f;
          match Snapshot.load ~dir with
          | Ok _ -> Alcotest.failf "%s: the damaged database loaded" what
          | Error e -> check_mentions what ~needles:("extent \"T\"" :: needles) e))
    [
      ("one #term re-typed", retype_first_term, [ "malformed CONTREP item" ]);
      ("a row without its CONTREP", drop_field "c", [ "does not match" ]);
    ]

let test_durable_open_names_extent () =
  with_temp_dir (fun dir ->
      let d, _ = ok (Durable.open_ ~dir ()) in
      ok (Storage.define (Durable.storage d) ~name:"T" t_type);
      ignore (ok (Storage.load (Durable.storage d) ~name:"T" one_row));
      Durable.close d;
      let snap = (fst (ok (Durable.inspect ~dir))).Durable.snapshot in
      damage_rows (Filename.concat dir snap) retype_first_term;
      match Durable.open_ ~dir () with
      | Ok _ -> Alcotest.fail "the damaged store opened"
      | Error e -> check_mentions "Durable.open_" ~needles:[ snap; "extent \"T\"" ] e)

(* {1 Reopen scales linearly} *)

(* mirrorbench's Docs shape: a URL, a year and a CONTREP of 10–29
   Zipf-distributed words over a 150-word vocabulary. *)
let docs_type =
  Types.Set
    (Types.Tuple
       [ ("source", Types.Atomic Atom.TStr); ("year", Types.Atomic Atom.TInt); ("annotation", contrep_t) ])

let docs g ~n =
  let zipf = Array.init 150 (fun i -> 1.0 /. Float.of_int (i + 1)) in
  List.init n (fun i ->
      let words =
        List.init (10 + Prng.int g 20) (fun _ -> Printf.sprintf "w%d" (Prng.sample_weighted g zipf))
      in
      Value.Tup
        [
          ("source", Value.str (Printf.sprintf "img://%d" i));
          ("year", Value.int (1990 + Prng.int g 12));
          ("annotation", Value.contrep (Mirror_ir.Tokenize.bag_of_words words));
        ])

let save_docs ~dir n =
  let st = Storage.create () in
  ok (Storage.define st ~name:"Docs" docs_type);
  ignore (ok (Storage.load st ~name:"Docs" (docs (Prng.create 1) ~n)));
  ok (Snapshot.save st ~dir)

let load_s dir =
  let t0 = Mirror_util.Trace.now () in
  ignore (ok (Snapshot.load ~dir));
  Mirror_util.Trace.now () -. t0

(* Fastest of five loads at each size, interleaved so that a burst of
   load on the host does not land on one size only.  No [Gc.compact]
   between loads: regrowing a compacted heap costs the larger load
   extra major cycles, which measures GC pacing, not reification. *)
let test_reopen_linear () =
  with_temp_dir (fun d500 ->
      with_temp_dir (fun d1000 ->
          save_docs ~dir:d500 500;
          save_docs ~dir:d1000 1000;
          let t500 = ref infinity and t1000 = ref infinity in
          for _ = 1 to 5 do
            t500 := Float.min !t500 (load_s d500);
            t1000 := Float.min !t1000 (load_s d1000)
          done;
          let ratio = !t1000 /. !t500 in
          if ratio > 2.5 then
            Alcotest.failf "load 500 docs %.1f ms, 1000 docs %.1f ms: ratio %.2f > 2.5"
              (1000. *. !t500) (1000. *. !t1000) ratio))

(* {1 A reopened store keeps the inverted index} *)

(* The search workload's ranking shapes: full rank, top-k, select +
   rank, and a query net. *)
let rank terms = Printf.sprintf "sum(getBL(THIS.annotation, %s, stats))" terms

let search_queries =
  [
    Printf.sprintf "map[%s](Docs)" (rank "{'w1', 'w7', 'w40'}");
    Printf.sprintf "take(tolist_desc(map[tuple(source: THIS.source, score: %s)](Docs), 'score'), 9)"
      (rank "{'w3', 'w12'}");
    Printf.sprintf "map[tuple(s: THIS.source, score: %s)](select[THIS.year = 1995](Docs))"
      (rank "{'w0', 'w5', 'w99', 'nosuchword'}");
    "map[getBLnet(THIS.annotation, '#and( w2 #or( w9 w30 ) )')](Docs)";
  ]

(* A result with every float replaced by its bits, so equality is
   bitwise. *)
let rec float_bits = function
  | Value.Atom (Atom.Flt f) -> Value.Atom (Atom.Int (Int64.to_int (Int64.bits_of_float f)))
  | Value.Atom _ as v -> v
  | Value.Tup fields -> Value.Tup (List.map (fun (l, v) -> (l, float_bits v)) fields)
  | Value.VSet vs -> Value.VSet (List.map float_bits vs)
  | Value.Xv x -> Value.Xv { x with items = List.map float_bits x.items }

(* Run the search shapes; return their results, how many belief
   operators they executed (read off each query's trace rollup) and
   how many occurrence scans the annotation space counted. *)
let run_search m =
  let st = Mirror_core.Mirror.storage m in
  let space = Option.get (Storage.space_find st "Docs#el/annotation") in
  let scans0 = Mirror_ir.Space.scans space in
  let calls = ref 0 in
  let results =
    List.map
      (fun q ->
        let trace = Mirror_util.Trace.create () in
        let r = ok (Eval.query ~trace st (ok (Parser.parse_expr q))) in
        List.iter
          (fun (op, (a : Mirror_util.Trace.agg)) ->
            if op = "foreign:contrep_getbl" || op = "foreign:contrep_getblnet" then
              calls := !calls + a.calls - a.flagged)
          (Eval.rollup trace);
        float_bits r.Eval.value)
      search_queries
  in
  (results, !calls, Mirror_ir.Space.scans space - scans0)

let test_reopened_store_uses_index () =
  with_temp_dir (fun dir ->
      let d, _ = ok (Durable.open_ ~dir ()) in
      ok (Storage.define (Durable.storage d) ~name:"Docs" docs_type);
      ignore (ok (Storage.load (Durable.storage d) ~name:"Docs" (docs (Prng.create 3) ~n:300)));
      let fresh, calls, scans = run_search (Durable.mirror d) in
      Alcotest.(check int) "fresh store: every belief operator ran" 4 calls;
      Alcotest.(check int) "fresh store: no occurrence scan" 0 scans;
      Durable.close d;
      let d, _ = ok (Durable.open_ ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Durable.close d)
        (fun () ->
          let cat = Storage.catalog (Durable.storage d) in
          let heads suffix = Bat.head (Catalog.get cat ("Docs#el/annotation" ^ suffix)) in
          Alcotest.(check bool)
            "#term shares #ctx's head column" true
            (heads "#term" == heads "#ctx");
          Alcotest.(check bool) "#tf shares #ctx's head column" true (heads "#tf" == heads "#ctx");
          let reopened, calls, scans = run_search (Durable.mirror d) in
          Alcotest.(check int) "reopened store: every belief operator ran" 4 calls;
          Alcotest.(check int) "reopened store: no occurrence scan" 0 scans;
          List.iteri
            (fun i (a, b) ->
              if not (Value.equal a b) then
                Alcotest.failf "query %d: the reopened store answers differently" i)
            (List.combine fresh reopened)))

(* A snapshot is read strictly in order: with its records permuted
   (T's rows ahead of T's definition) or one byte of a frame flipped,
   the load fails and names what it could not rebuild. *)
let test_unaligned_heads_fail () =
  let swap_define_replace = function
    | (Record.Define ("T", _) as d) :: (Record.Replace ("T", _) as r) :: rest -> r :: d :: rest
    | _ -> Alcotest.fail "T's records are not first"
  in
  with_temp_dir (fun dir ->
      let file = Filename.concat dir "snapshot" in
      ok (Snapshot.save (storage_of one_row) ~dir);
      Snapshot.write file (swap_define_replace (ok (Snapshot.read file)));
      (match Snapshot.load ~dir with
      | Ok _ -> Alcotest.fail "a snapshot with permuted records loaded"
      | Error e ->
        check_mentions "permuted records" ~needles:[ "extent \"T\""; "unknown extent" ] e);
      ok (Snapshot.save (storage_of one_row) ~dir);
      let b = Bytes.of_string (In_channel.with_open_bin file In_channel.input_all) in
      (* inside the first frame's payload *)
      Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 0x40));
      Out_channel.with_open_bin file (fun oc -> output_bytes oc b);
      match Snapshot.load ~dir with
      | Ok _ -> Alcotest.fail "a snapshot with a flipped byte loaded"
      | Error e -> check_mentions "flipped byte" ~needles:[ file; "checksum" ] e)

let () =
  Alcotest.run "reify"
    [
      ( "oracle",
        [
          Alcotest.test_case "seeded extents and query results" `Quick test_oracle_seeded;
          Alcotest.test_case "empty bags and lists" `Quick test_oracle_empty;
          Alcotest.test_case "interleaved contexts, repeated terms" `Quick
            test_oracle_repeated_terms;
        ] );
      ( "damage",
        [
          Alcotest.test_case "missing payload fails loudly" `Quick test_missing_payload_fails;
          Alcotest.test_case "damaged #term is a load error" `Quick test_damaged_term_is_an_error;
          Alcotest.test_case "Durable.open_ names the extent" `Quick test_durable_open_names_extent;
        ] );
      ("scaling", [ Alcotest.test_case "reopen is linear" `Quick test_reopen_linear ]);
      ( "index",
        [
          Alcotest.test_case "a reopened store ranks from the index" `Quick
            test_reopened_store_uses_index;
          Alcotest.test_case "permuted occurrence rows fail the load" `Quick
            test_unaligned_heads_fail;
        ] );
    ]
