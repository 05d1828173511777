(* Tests for the binary-relational kernel (mirror_bat). *)

module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column
module Bat = Mirror_bat.Bat
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil

let oid i = Atom.Oid i
let int i = Atom.Int i
let flt f = Atom.Flt f
let str s = Atom.Str s

let bat_oi pairs = Bat.of_pairs Atom.TOid Atom.TInt (List.map (fun (h, t) -> (oid h, int t)) pairs)
let bat_oo pairs = Bat.of_pairs Atom.TOid Atom.TOid (List.map (fun (h, t) -> (oid h, oid t)) pairs)
let bat_os pairs = Bat.of_pairs Atom.TOid Atom.TStr (List.map (fun (h, t) -> (oid h, str t)) pairs)

let pairs_testable =
  Alcotest.testable
    (fun ppf b -> Bat.pp ppf b)
    (fun a b -> Bat.equal a b)

let check_bat name expected actual = Alcotest.check pairs_testable name expected actual

let atom_testable = Alcotest.testable Atom.pp Atom.equal

(* {1 Atom} *)

let test_atom_order_and_equal () =
  Alcotest.(check bool) "int eq" true (Atom.equal (int 3) (int 3));
  Alcotest.(check bool) "cross-type neq" false (Atom.equal (int 3) (oid 3));
  Alcotest.(check bool) "compare lt" true (Atom.compare (int 1) (int 2) < 0);
  Alcotest.(check bool) "str order" true (Atom.compare (str "a") (str "b") < 0);
  Alcotest.(check bool) "hash consistent" true (Atom.hash (str "x") = Atom.hash (str "x"))

let test_atom_round_trip () =
  List.iter
    (fun a ->
      let s = Atom.to_string a in
      match Atom.parse (Atom.type_of a) s with
      | Ok b -> Alcotest.check atom_testable ("round-trip " ^ s) a b
      | Error e -> Alcotest.fail e)
    [ int 42; int (-7); flt 3.25; str "hi\tthere"; str ""; Atom.Bool true; oid 9 ]

let test_atom_accessors () =
  Alcotest.(check int) "as_int" 5 (Atom.as_int (int 5));
  Alcotest.(check (float 0.0)) "as_float widens" 5.0 (Atom.as_float (int 5));
  Alcotest.check_raises "as_int of str" (Invalid_argument "Atom: expected int, got str")
    (fun () -> ignore (Atom.as_int (str "x")))

(* {1 Column} *)

let test_column_basics () =
  let c = Column.of_atoms Atom.TInt [ int 1; int 2; int 3 ] in
  Alcotest.(check int) "length" 3 (Column.length c);
  Alcotest.check atom_testable "get" (int 2) (Column.get c 1);
  Alcotest.(check bool) "ty" true (Column.ty c = Atom.TInt)

let test_column_type_check () =
  Alcotest.check_raises "bad atom"
    (Invalid_argument "Column: cell type str does not match column type int") (fun () ->
      ignore (Column.of_atoms Atom.TInt [ str "x" ]))

let test_column_gather () =
  let c = Column.of_atoms Atom.TStr [ str "a"; str "b"; str "c" ] in
  let g = Column.gather c [| 2; 0; 2 |] in
  Alcotest.(check (list string))
    "gather" [ "c"; "a"; "c" ]
    (List.map Atom.as_string (Column.to_atoms g))

let test_column_dense () =
  let c = Column.dense 5 3 in
  Alcotest.(check (list int)) "dense" [ 5; 6; 7 ] (List.map Atom.as_oid (Column.to_atoms c))

let test_column_builder () =
  let b = Column.Builder.create Atom.TFlt in
  for i = 1 to 100 do
    Column.Builder.add_float b (Float.of_int i)
  done;
  let c = Column.Builder.finish b in
  Alcotest.(check int) "length" 100 (Column.length c);
  Alcotest.check atom_testable "last" (flt 100.0) (Column.get c 99)

(* {1 Bat unary operators} *)

let test_make_length_check () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Bat.make: column length mismatch")
    (fun () ->
      ignore (Bat.make (Column.dense 0 2) (Column.of_atoms Atom.TInt [ int 1 ])))

let test_reverse_mirror () =
  let b = bat_oi [ (0, 10); (1, 11) ] in
  check_bat "reverse twice" b (Bat.reverse (Bat.reverse b));
  let m = Bat.mirror b in
  Bat.iter (fun h t -> Alcotest.check atom_testable "mirror" h t) m

let test_mark_number () =
  let b = bat_os [ (7, "x"); (9, "y") ] in
  let marked = Bat.mark b 100 in
  Alcotest.(check (list int)) "mark tails" [ 100; 101 ]
    (List.map (fun (_, t) -> Atom.as_oid t) (Bat.to_pairs marked));
  let nh = Bat.number_head b 50 in
  Alcotest.(check (list int)) "number_head heads" [ 50; 51 ]
    (List.map (fun (h, _) -> Atom.as_oid h) (Bat.to_pairs nh));
  Alcotest.(check (list int)) "number_head tails are old heads" [ 7; 9 ]
    (List.map (fun (_, t) -> Atom.as_oid t) (Bat.to_pairs nh));
  let nt = Bat.number_tail b 50 in
  Alcotest.(check (list string)) "number_tail tails" [ "x"; "y" ]
    (List.map (fun (_, t) -> Atom.as_string t) (Bat.to_pairs nt))

let test_project () =
  let b = bat_oi [ (0, 1); (1, 2) ] in
  let p = Bat.project b (str "k") in
  Alcotest.(check (list string)) "const tails" [ "k"; "k" ]
    (List.map (fun (_, t) -> Atom.as_string t) (Bat.to_pairs p))

let test_calc () =
  let b = bat_oi [ (0, 2); (1, 3) ] in
  check_bat "tail + 10" (bat_oi [ (0, 12); (1, 13) ]) (Bat.calc_const Bat.Add b (int 10));
  check_bat "20 - tail" (bat_oi [ (0, 18); (1, 17) ]) (Bat.const_calc Bat.Sub (int 20) b);
  let f = Bat.calc1 Bat.ToFlt b in
  Alcotest.(check bool) "toflt type" true (Bat.tty f = Atom.TFlt);
  let neg = Bat.calc1 Bat.Neg b in
  check_bat "neg" (bat_oi [ (0, -2); (1, -3) ]) neg

let test_calc_promotion () =
  let b = bat_oi [ (0, 2) ] in
  let r = Bat.calc_const Bat.Mul b (flt 1.5) in
  Alcotest.check atom_testable "int*flt promotes" (flt 3.0) (Bat.tail_at r 0)

let test_calc2 () =
  let l = bat_oi [ (0, 1); (1, 2); (2, 3) ] in
  let r = bat_oi [ (1, 10); (0, 20) ] in
  (* head-aligned: @2 has no partner and is dropped *)
  check_bat "aligned add" (bat_oi [ (0, 21); (1, 12) ]) (Bat.calc2 Bat.Add l r)

let test_calc2_pos () =
  let l = bat_oi [ (0, 1); (1, 2) ] in
  let r = bat_oi [ (9, 10); (9, 20) ] in
  check_bat "positional" (bat_oi [ (0, 11); (1, 22) ]) (Bat.calc2_pos Bat.Add l r)

let test_slice_sort_topn () =
  let b = bat_oi [ (0, 5); (1, 1); (2, 9); (3, 3) ] in
  check_bat "slice" (bat_oi [ (1, 1); (2, 9) ]) (Bat.slice b 1 2);
  check_bat "slice clamps" (bat_oi [ (3, 3) ]) (Bat.slice b 3 99);
  check_bat "sort asc" (bat_oi [ (1, 1); (3, 3); (0, 5); (2, 9) ]) (Bat.sort_tail b);
  check_bat "sort desc" (bat_oi [ (2, 9); (0, 5); (3, 3); (1, 1) ]) (Bat.sort_tail ~desc:true b);
  check_bat "top2" (bat_oi [ (2, 9); (0, 5) ]) (Bat.topn b 2)

let test_sort_stability () =
  let b = bat_oi [ (0, 1); (1, 1); (2, 0) ] in
  check_bat "stable ties" (bat_oi [ (2, 0); (0, 1); (1, 1) ]) (Bat.sort_tail b)

let test_unique () =
  let b = bat_oi [ (0, 1); (0, 1); (0, 2); (1, 1) ] in
  check_bat "unique pairs" (bat_oi [ (0, 1); (0, 2); (1, 1) ]) (Bat.unique b);
  check_bat "unique head" (bat_oi [ (0, 1); (1, 1) ]) (Bat.unique_head b)

(* {1 Selections} *)

let test_selections () =
  let b = bat_oi [ (0, 5); (1, 7); (2, 5); (3, 2) ] in
  check_bat "eq" (bat_oi [ (0, 5); (2, 5) ]) (Bat.select_cmp b Bat.Eq (int 5));
  check_bat "ne" (bat_oi [ (1, 7); (3, 2) ]) (Bat.select_cmp b Bat.Ne (int 5));
  check_bat "lt" (bat_oi [ (3, 2) ]) (Bat.select_cmp b Bat.Lt (int 5));
  check_bat "ge" (bat_oi [ (0, 5); (1, 7); (2, 5) ]) (Bat.select_cmp b Bat.Ge (int 5));
  check_bat "range" (bat_oi [ (0, 5); (2, 5); (3, 2) ]) (Bat.select_range b (int 2) (int 5))

let test_select_bool () =
  let b =
    Bat.of_pairs Atom.TOid Atom.TBool
      [ (oid 0, Atom.Bool true); (oid 1, Atom.Bool false); (oid 2, Atom.Bool true) ]
  in
  let r = Bat.select_bool b in
  Alcotest.(check (list int)) "true rows" [ 0; 2 ]
    (List.map (fun (h, _) -> Atom.as_oid h) (Bat.to_pairs r))

let test_filter () =
  let b = bat_oi [ (0, 1); (1, 2); (2, 3) ] in
  check_bat "generic filter" (bat_oi [ (1, 2) ])
    (Bat.filter (fun _ t -> Atom.as_int t mod 2 = 0) b)

(* {1 Binary operators} *)

let test_join_basic () =
  let l = bat_oo [ (0, 10); (1, 11); (2, 12) ] in
  let r = bat_os [ (11, "b"); (10, "a") ] in
  check_bat "join" (bat_os [ (0, "a"); (1, "b") ]) (Bat.join l r)

let test_join_multimatch () =
  let l = bat_oo [ (0, 10) ] in
  let r = bat_os [ (10, "x"); (10, "y") ] in
  check_bat "fanout" (bat_os [ (0, "x"); (0, "y") ]) (Bat.join l r)

let test_join_generic_strings () =
  let l = Bat.of_pairs Atom.TOid Atom.TStr [ (oid 0, str "k1"); (oid 1, str "k2") ] in
  let r = Bat.of_pairs Atom.TStr Atom.TInt [ (str "k2", int 22); (str "k1", int 11) ] in
  check_bat "string join" (bat_oi [ (0, 11); (1, 22) ]) (Bat.join l r)

let test_join_type_check () =
  let l = bat_oi [ (0, 1) ] in
  let r = bat_os [ (1, "x") ] in
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Bat.join: tail type int does not match head type oid") (fun () ->
      ignore (Bat.join l r))

let test_leftouterjoin () =
  let l = bat_oo [ (0, 10); (1, 99) ] in
  let r = bat_oi [ (10, 7) ] in
  check_bat "outer" (bat_oi [ (0, 7); (1, 0) ]) (Bat.leftouterjoin l r (int 0))

let test_semijoin_antijoin () =
  let l = bat_oi [ (0, 1); (1, 2); (2, 3) ] in
  let r = bat_oo [ (0, 0); (2, 0) ] in
  check_bat "semijoin" (bat_oi [ (0, 1); (2, 3) ]) (Bat.semijoin l r);
  check_bat "antijoin" (bat_oi [ (1, 2) ]) (Bat.antijoin l r);
  check_bat "kdiff alias" (Bat.antijoin l r) (Bat.kdiff l r);
  check_bat "kintersect alias" (Bat.semijoin l r) (Bat.kintersect l r)

let test_kunion () =
  let l = bat_oi [ (0, 1); (1, 2) ] in
  let r = bat_oi [ (1, 99); (2, 3) ] in
  check_bat "left precedence" (bat_oi [ (0, 1); (1, 2); (2, 3) ]) (Bat.kunion l r)

let test_pair_ops () =
  let l = bat_oi [ (0, 1); (0, 2); (1, 1) ] in
  let r = bat_oi [ (0, 2); (1, 1); (5, 5) ] in
  check_bat "pair_diff" (bat_oi [ (0, 1) ]) (Bat.pair_diff l r);
  check_bat "pair_inter" (bat_oi [ (0, 2); (1, 1) ]) (Bat.pair_inter l r);
  check_bat "pair_union"
    (bat_oi [ (0, 1); (0, 2); (1, 1); (5, 5) ])
    (Bat.pair_union l r)

let test_append () =
  let l = bat_oi [ (0, 1) ] and r = bat_oi [ (1, 2) ] in
  check_bat "append" (bat_oi [ (0, 1); (1, 2) ]) (Bat.append l r);
  Alcotest.check_raises "type mismatch" (Invalid_argument "Bat.append: type mismatch")
    (fun () -> ignore (Bat.append l (bat_os [ (0, "x") ])))

(* {1 Grouping and aggregation} *)

let test_group_aggr () =
  let b = bat_oi [ (0, 1); (1, 10); (0, 2); (1, 20); (0, 3) ] in
  check_bat "group sum" (bat_oi [ (0, 6); (1, 30) ]) (Bat.group_aggr Bat.Sum b);
  check_bat "group count" (bat_oi [ (0, 3); (1, 2) ]) (Bat.group_aggr Bat.Count b);
  check_bat "group min" (bat_oi [ (0, 1); (1, 10) ]) (Bat.group_aggr Bat.Min b);
  check_bat "group max" (bat_oi [ (0, 3); (1, 20) ]) (Bat.group_aggr Bat.Max b);
  let avg = Bat.group_aggr Bat.Avg b in
  Alcotest.check atom_testable "group avg" (flt 2.0) (Bat.tail_at avg 0)

let test_aggr_all () =
  let b = bat_oi [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.check atom_testable "sum" (int 6) (Bat.aggr_all Bat.Sum b);
  Alcotest.check atom_testable "count" (int 3) (Bat.aggr_all Bat.Count b);
  Alcotest.check atom_testable "min" (int 1) (Bat.aggr_all Bat.Min b);
  Alcotest.check atom_testable "avg" (flt 2.0) (Bat.aggr_all Bat.Avg b);
  let e = Bat.empty Atom.TOid Atom.TInt in
  Alcotest.check atom_testable "empty sum neutral" (int 0) (Bat.aggr_all Bat.Sum e);
  Alcotest.check atom_testable "empty count" (int 0) (Bat.aggr_all Bat.Count e);
  Alcotest.check_raises "empty min raises"
    (Invalid_argument "Bat.aggr_all: empty input for min/max/avg") (fun () ->
      ignore (Bat.aggr_all Bat.Min e))

let test_float_group_sum () =
  let b =
    Bat.of_pairs Atom.TOid Atom.TFlt [ (oid 0, flt 0.5); (oid 0, flt 0.25); (oid 1, flt 1.0) ]
  in
  let r = Bat.group_aggr Bat.Sum b in
  Alcotest.check atom_testable "float sum" (flt 0.75) (Bat.tail_at r 0)

let test_group_rank () =
  (* elements 10,11,12 in group 0 with keys 5.0, 9.0, 1.0; element 13 in group 1 *)
  let link = bat_oo [ (10, 0); (11, 0); (12, 0); (13, 1) ] in
  let key =
    Bat.of_pairs Atom.TOid Atom.TFlt
      [ (oid 10, flt 5.0); (oid 11, flt 9.0); (oid 12, flt 1.0); (oid 13, flt 2.0) ]
  in
  let r = Bat.group_rank ~desc:true ~link key in
  let rank_of e =
    let pairs = Bat.to_pairs r in
    List.assoc (oid e) (List.map (fun (h, t) -> (h, Atom.as_int t)) pairs)
  in
  Alcotest.(check int) "best in group" 0 (rank_of 11);
  Alcotest.(check int) "middle" 1 (rank_of 10);
  Alcotest.(check int) "worst" 2 (rank_of 12);
  Alcotest.(check int) "other group restarts" 0 (rank_of 13)

(* The group_rank kernel as it was before per-row values were
   precomputed: one hash lookup and two boxed reads per comparison.
   Kept verbatim (module paths qualified, the record built with
   [make]) as the oracle the rewritten
   kernel must match row for row. *)
module Old_group_rank = struct
  open Bat

  module AtomTbl = Hashtbl.Make (struct
    type t = Atom.t

    let equal = Atom.equal
    let hash = Atom.hash
  end)

  let first_position_index c =
    let tbl = AtomTbl.create (Column.length c) in
    for i = 0 to Column.length c - 1 do
      let v = Column.get c i in
      if not (AtomTbl.mem tbl v) then AtomTbl.add tbl v i
    done;
    tbl

  let group_rank ?(desc = false) ~link key =
    let val_of = first_position_index (head key) in
    let n = count link in
    let idx = Array.init n (fun i -> i) in
    let value i =
      match AtomTbl.find_opt val_of (head_at link i) with
      | Some j -> Some (tail_at key j)
      | None -> None
    in
    let cmp i j =
      let c = Atom.compare (tail_at link i) (tail_at link j) in
      if c <> 0 then c
      else
        let c =
          match (value i, value j) with
          | Some a, Some b -> if desc then Atom.compare b a else Atom.compare a b
          | Some _, None -> -1
          | None, Some _ -> 1
          | None, None -> 0
        in
        if c <> 0 then c else Int.compare i j
    in
    Array.sort cmp idx;
    let hb = Column.Builder.create (hty link) in
    let tb = Column.Builder.create Atom.TInt in
    let rank = ref 0 in
    for k = 0 to n - 1 do
      let i = idx.(k) in
      if k > 0 && not (Atom.equal (tail_at link i) (tail_at link idx.(k - 1))) then rank := 0;
      Column.Builder.add hb (head_at link i);
      Column.Builder.add tb (Atom.Int !rank);
      incr rank
    done;
    make (Column.Builder.finish hb) (Column.Builder.finish tb)
end

(* Row for row against the oracle: both directions, ties, missing keys
   (and keys for no element), several groups, nan and -0.0 keys, dense
   and scattered key heads, and the non-float fallback (int, str keys;
   int-tailed and str-tailed groups; mismatched head kinds). *)
let test_group_rank_oracle () =
  let g = Mirror_util.Prng.create 7 in
  let floats = [| 1.0; 2.5; -0.0; 0.0; Float.nan; Float.infinity; -3.0; 2.5 |] in
  let case name ~link ~key =
    List.iter
      (fun desc ->
        let label = Printf.sprintf "%s desc=%b" name desc in
        let expected = Old_group_rank.group_rank ~desc ~link key in
        let actual = Bat.group_rank ~desc ~link key in
        check_bat label expected actual;
        Alcotest.(check bool) (label ^ ": same column kinds") true
          (Column.ty (Bat.head actual) = Column.ty (Bat.head expected)))
      [ false; true ]
  in
  let gen_link ~n ~groups ~tail =
    Bat.of_pairs Atom.TOid (Atom.type_of (tail 0))
      (List.init n (fun i -> (oid (100 + i), tail (Mirror_util.Prng.int g groups))))
  in
  for round = 0 to 39 do
    let n = Mirror_util.Prng.int g 40 in
    let groups = 1 + Mirror_util.Prng.int g 4 in
    let link = gen_link ~n ~groups ~tail:oid in
    (* keys for a random subset of the elements plus strays; dense when
       every element has one, in order *)
    let dense = round mod 3 = 0 in
    let heads =
      if dense then List.init n (fun i -> 100 + i)
      else
        List.filter (fun _ -> Mirror_util.Prng.int g 4 > 0) (List.init n (fun i -> 100 + i))
        @ [ 999; 100 ]
    in
    let fkey =
      Bat.of_pairs Atom.TOid Atom.TFlt
        (List.map
           (fun h -> (oid h, flt floats.(Mirror_util.Prng.int g (Array.length floats))))
           heads)
    in
    case (Printf.sprintf "float keys, round %d" round) ~link ~key:fkey;
    let ikey =
      Bat.of_pairs Atom.TOid Atom.TInt
        (List.map (fun h -> (oid h, int (Mirror_util.Prng.int g 5))) heads)
    in
    case (Printf.sprintf "int keys, round %d" round) ~link ~key:ikey;
    let skey =
      Bat.of_pairs Atom.TOid Atom.TStr
        (List.map (fun h -> (oid h, str (String.make 1 "abc".[Mirror_util.Prng.int g 3]))) heads)
    in
    case (Printf.sprintf "str keys, round %d" round) ~link ~key:skey;
    let int_groups = gen_link ~n ~groups ~tail:int in
    case (Printf.sprintf "int-tailed groups, round %d" round) ~link:int_groups ~key:fkey;
    let str_groups = gen_link ~n ~groups ~tail:(fun k -> str (string_of_int k)) in
    case (Printf.sprintf "str-tailed groups, round %d" round) ~link:str_groups ~key:fkey;
    (* int heads never match oid heads: every element ranks as missing *)
    let int_headed =
      Bat.of_pairs Atom.TInt Atom.TFlt
        (List.map (fun (h, t) -> (int (Atom.as_oid h), t)) (Bat.to_pairs fkey))
    in
    case (Printf.sprintf "mismatched head kinds, round %d" round) ~link ~key:int_headed
  done;
  case "empty" ~link:(bat_oo []) ~key:(Bat.of_pairs Atom.TOid Atom.TFlt [])

let test_histogram () =
  let b = bat_os [ (0, "a"); (1, "b"); (2, "a") ] in
  let h = Bat.histogram b in
  Alcotest.(check int) "distinct values" 2 (Bat.count h);
  let count_of v =
    List.assoc (str v) (List.map (fun (h, t) -> (h, Atom.as_int t)) (Bat.to_pairs h))
  in
  Alcotest.(check int) "a twice" 2 (count_of "a");
  Alcotest.(check int) "b once" 1 (count_of "b")

(* {1 Catalog} *)

let test_catalog_basics () =
  let c = Catalog.create () in
  Catalog.put c "x" (bat_oi [ (0, 1) ]);
  Alcotest.(check bool) "mem" true (Catalog.mem c "x");
  Alcotest.(check int) "cardinality" 1 (Catalog.cardinality c);
  check_bat "get" (bat_oi [ (0, 1) ]) (Catalog.get c "x");
  Catalog.remove c "x";
  Alcotest.(check bool) "removed" false (Catalog.mem c "x")

(* {2 The catalog a snapshot rebuilds}

   A saved database is the log's records, not a catalog dump
   ({!Mirror_store.Snapshot}); loading redoes them into an empty
   storage manager.  Extents defined and loaded once each, in name
   order, are the records' own history, so the rebuilt catalog holds
   the very same BATs. *)

module Storage = Mirror_core.Storage
module Snapshot = Mirror_store.Snapshot
module Types = Mirror_core.Types
module Value = Mirror_core.Value

let with_snapshot_dir f =
  let dir = Filename.temp_file "mirror" ".db" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let awkward_storage () =
  Mirror_core.Bootstrap.ensure ();
  let st = Storage.create () in
  let extent name ty rows =
    (match Storage.define st ~name (Types.Set (Types.Atomic ty)) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    match Storage.load st ~name (List.map (fun a -> Value.Atom a) rows) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  extent "floats" Atom.TFlt [ flt 1.5; flt (-0.25); flt (1.0 /. 3.0) ];
  extent "nums" Atom.TInt [ int (-5); int 7; int max_int; int min_int ];
  extent "weird name %\t" Atom.TStr [ str "hello\tworld"; str ""; str "%bat x\n" ];
  st

let test_catalog_round_trip () =
  with_snapshot_dir (fun dir ->
      let st = awkward_storage () in
      (match Snapshot.save st ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      match Snapshot.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok st2 ->
        let c = Storage.catalog st and c2 = Storage.catalog st2 in
        Alcotest.(check (list string)) "names" (Catalog.names c) (Catalog.names c2);
        List.iter
          (fun n -> check_bat ("entry " ^ n) (Catalog.get c n) (Catalog.get c2 n))
          (Catalog.names c))

(* A snapshot cut at a frame boundary is a well-formed run of frames
   with records missing; only its end marker tells it apart. *)
let test_catalog_cut_at_stanza_refused () =
  with_snapshot_dir (fun dir ->
      (match Snapshot.save (awkward_storage ()) ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      let file = Filename.concat dir "snapshot" in
      let src = In_channel.with_open_bin file In_channel.input_all in
      let rec boundaries pos acc =
        if pos >= String.length src then List.rev acc
        else boundaries (pos + 8 + Int32.to_int (String.get_int32_le src pos)) (pos :: acc)
      in
      List.iter
        (fun cut ->
          Out_channel.with_open_bin file (fun oc -> output_string oc (String.sub src 0 cut));
          match Snapshot.load ~dir with
          | Ok st ->
            Alcotest.failf "a snapshot cut at byte %d loaded with extents [%s]" cut
              (String.concat "; " (Storage.extents st))
          | Error e ->
            Alcotest.(check bool) ("names the cut: " ^ e) true
              (Mirror_util.Stringx.starts_with ~prefix:("snapshot " ^ file) e))
        (boundaries 0 []))

(* {1 Mil executor} *)

let mil_fixture () =
  let c = Catalog.create () in
  Catalog.put c "link" (bat_oo [ (10, 0); (11, 0); (12, 1) ]);
  Catalog.put c "vals" (bat_oi [ (10, 5); (11, 7); (12, 9) ]);
  c

let test_mil_basic_exec () =
  let c = mil_fixture () in
  let s = Mil.session c in
  let r = Mil.exec s (Mil.Join (Mil.Reverse (Mil.Get "link"), Mil.Get "vals")) in
  check_bat "join via plan" (bat_oi [ (0, 5); (0, 7); (1, 9) ]) r

let test_mil_group_sum_plan () =
  let c = mil_fixture () in
  let s = Mil.session c in
  let plan = Mil.GroupAggr (Bat.Sum, Mil.Join (Mil.Reverse (Mil.Get "link"), Mil.Get "vals")) in
  check_bat "grouped sum" (bat_oi [ (0, 12); (1, 9) ]) (Mil.exec s plan)

let test_mil_memoisation () =
  let c = mil_fixture () in
  let s = Mil.session c in
  let sub = Mil.Join (Mil.Reverse (Mil.Get "link"), Mil.Get "vals") in
  let p1 = Mil.GroupAggr (Bat.Sum, sub) in
  let p2 = Mil.GroupAggr (Bat.Count, sub) in
  ignore (Mil.exec s p1);
  let before = (Mil.stats s).Mil.evaluated in
  ignore (Mil.exec s p2);
  let after = (Mil.stats s).Mil.evaluated in
  (* Only the new GroupAggr node should evaluate; sub-plan is memoised. *)
  Alcotest.(check int) "one new node" 1 (after - before);
  Alcotest.(check bool) "memo hits recorded" true ((Mil.stats s).Mil.memo_hits > 0)

let test_mil_no_cse () =
  let c = mil_fixture () in
  let s = Mil.session ~cse:false c in
  let sub = Mil.Reverse (Mil.Get "link") in
  ignore (Mil.exec s sub);
  ignore (Mil.exec s sub);
  Alcotest.(check int) "re-evaluated" 4 (Mil.stats s).Mil.evaluated

let test_mil_lit_and_aggr_all () =
  let c = Catalog.create () in
  let s = Mil.session c in
  let lit = Mil.Lit { hty = Atom.TOid; tty = Atom.TInt; pairs = [ (oid 0, int 4); (oid 1, int 6) ] } in
  let r = Mil.exec s (Mil.AggrAll (Bat.Sum, lit)) in
  check_bat "aggr_all" (bat_oi [ (0, 10) ]) r

let test_mil_foreign () =
  let c = Catalog.create () in
  let foreign ~name ~args ~meta =
    Alcotest.(check string) "op name" "double" name;
    Alcotest.(check (list string)) "meta" [ "m" ] meta;
    match args with
    | [ b ] -> Bat.calc_const Bat.Mul b (int 2)
    | _ -> Alcotest.fail "bad arity"
  in
  let s = Mil.session ~foreign c in
  let lit = Mil.Lit { hty = Atom.TOid; tty = Atom.TInt; pairs = [ (oid 0, int 21) ] } in
  let r = Mil.exec s (Mil.Foreign { name = "double"; args = [ lit ]; meta = [ "m" ] }) in
  check_bat "foreign result" (bat_oi [ (0, 42) ]) r

let test_mil_unknown_foreign () =
  let s = Mil.session (Catalog.create ()) in
  Alcotest.check_raises "unknown foreign" (Failure "Mil: unknown foreign operator \"nope\"")
    (fun () ->
      ignore (Mil.exec s (Mil.Foreign { name = "nope"; args = []; meta = [] })))

let test_mil_size_and_pp () =
  let p = Mil.GroupAggr (Bat.Sum, Mil.Join (Mil.Reverse (Mil.Get "a"), Mil.Get "b")) in
  Alcotest.(check int) "size" 5 (Mil.size p);
  Alcotest.(check bool) "pp mentions join" true
    (String.length (Mil.to_string p) > 0
    &&
    let s = Mil.to_string p in
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    contains s "join")

(* {1 Fast-path coverage: dense ("void") heads, merge scans, typed loops} *)

let test_join_dense_head () =
  (* right head is dense ascending -> positional path *)
  let l = bat_oo [ (0, 102); (1, 100); (2, 999) ] in
  let r = Bat.make (Column.dense 100 3) (Column.of_atoms Atom.TStr [ str "a"; str "b"; str "c" ]) in
  check_bat "dense join" (bat_os [ (0, "c"); (1, "a") ]) (Bat.join l r)

let test_join_merge_sorted () =
  (* both sides sorted, right not dense -> merge join *)
  let l = bat_oo [ (0, 10); (1, 12); (2, 12); (3, 15) ] in
  let r = Bat.of_pairs Atom.TOid Atom.TInt [ (oid 10, int 1); (oid 12, int 2); (oid 14, int 3) ] in
  check_bat "merge join" (bat_oi [ (0, 1); (1, 2); (2, 2) ]) (Bat.join l r)

let test_join_fastpaths_match_generic () =
  (* same logical input through the hash path (shuffled) and the merge
     path (sorted) must agree as multisets *)
  let pairs = [ (5, 3); (1, 9); (3, 3); (2, 7); (4, 9) ] in
  let sorted = List.sort compare pairs in
  let l_sorted = bat_oo (List.map (fun (h, t) -> (h, t)) sorted) in
  let l_shuffled = bat_oo pairs in
  let r = bat_oi [ (3, 33); (9, 99) ] in
  Alcotest.(check bool) "same rows" true
    (Bat.equal_as_set (Bat.join l_sorted r) (Bat.join l_shuffled r))

let test_semijoin_dense_and_merge () =
  let l = bat_oi [ (10, 1); (11, 2); (12, 3); (30, 4) ] in
  let dense_r = Bat.make (Column.dense 11 2) (Column.dense 0 2) in
  check_bat "dense membership" (bat_oi [ (11, 2); (12, 3) ]) (Bat.semijoin l dense_r);
  let sparse_sorted_r = bat_oo [ (10, 0); (30, 0) ] in
  check_bat "merge membership" (bat_oi [ (10, 1); (30, 4) ]) (Bat.semijoin l sparse_sorted_r);
  check_bat "merge anti" (bat_oi [ (11, 2); (12, 3) ]) (Bat.antijoin l sparse_sorted_r)

let test_calc2_aligned_vs_indexed () =
  (* aligned heads take the positional typed loop *)
  let l = bat_oi [ (0, 1); (1, 2); (2, 3) ] in
  let r = bat_oi [ (0, 10); (1, 20); (2, 30) ] in
  check_bat "aligned" (bat_oi [ (0, 11); (1, 22); (2, 33) ]) (Bat.calc2 Bat.Add l r);
  (* permuted heads fall back to the index path with identical results *)
  let r_perm = bat_oi [ (2, 30); (0, 10); (1, 20) ] in
  check_bat "permuted" (bat_oi [ (0, 11); (1, 22); (2, 33) ]) (Bat.calc2 Bat.Add l r_perm)

let test_calc2_float_aligned () =
  let l = Bat.of_pairs Atom.TOid Atom.TFlt [ (oid 0, flt 1.5); (oid 1, flt 2.5) ] in
  let r = Bat.of_pairs Atom.TOid Atom.TFlt [ (oid 0, flt 0.5); (oid 1, flt 0.25) ] in
  let out = Bat.calc2 Bat.Mul l r in
  Alcotest.check atom_testable "float mul" (flt 0.75) (Bat.tail_at out 0);
  let cmp = Bat.calc2 (Bat.CmpOp Bat.Gt) l r in
  Alcotest.check atom_testable "float cmp" (Atom.Bool true) (Bat.tail_at cmp 0)

let test_group_aggr_windowed_slots () =
  (* heads within a small window use the flat slot table *)
  let b = bat_oi [ (1000, 1); (1001, 2); (1000, 3); (1002, 4) ] in
  check_bat "window sum" (bat_oi [ (1000, 4); (1001, 2); (1002, 4) ]) (Bat.group_aggr Bat.Sum b);
  (* widely-spread heads use the hash table; same semantics *)
  let spread = bat_oi [ (0, 1); (1_000_000, 2); (0, 3) ] in
  check_bat "hash sum" (bat_oi [ (0, 4); (1_000_000, 2) ]) (Bat.group_aggr Bat.Sum spread)

let test_group_aggr_float_sum_typed () =
  let b =
    Bat.of_pairs Atom.TOid Atom.TFlt
      [ (oid 7, flt 0.5); (oid 7, flt 1.5); (oid 8, flt 2.0) ]
  in
  let r = Bat.group_aggr Bat.Sum b in
  Alcotest.check atom_testable "typed float sum" (flt 2.0) (Bat.tail_at r 0);
  Alcotest.check atom_testable "second group" (flt 2.0) (Bat.tail_at r 1);
  let avg = Bat.group_aggr Bat.Avg b in
  Alcotest.check atom_testable "typed avg" (flt 1.0) (Bat.tail_at avg 0)

let test_select_cmp_typed_paths () =
  let f = Bat.of_pairs Atom.TOid Atom.TFlt [ (oid 0, flt 1.0); (oid 1, flt 2.0) ] in
  Alcotest.(check int) "float le" 1 (Bat.count (Bat.select_cmp f Bat.Le (flt 1.5)));
  let s = bat_os [ (0, "apple"); (1, "pear") ] in
  Alcotest.(check int) "string lt" 1 (Bat.count (Bat.select_cmp s Bat.Lt (str "b")));
  let o = bat_oo [ (0, 5); (1, 9) ] in
  Alcotest.(check int) "oid ge" 1 (Bat.count (Bat.select_cmp o Bat.Ge (oid 9)))

let test_mil_profiling () =
  let c = mil_fixture () in
  let tr = Mirror_util.Trace.create () in
  let s = Mil.session ~trace:tr c in
  let plan =
    Mil.GroupAggr (Bat.Sum, Mil.Join (Mil.Reverse (Mil.Get "link"), Mil.Get "vals"))
  in
  let result = Mil.exec s plan in
  let prof = Mil.profile s in
  Alcotest.(check bool) "profile recorded" true (List.length prof >= 3);
  List.iter
    (fun (_, t, n) ->
      Alcotest.(check bool) "non-negative time" true (t >= 0.0);
      Alcotest.(check bool) "positive count" true (n > 0))
    prof;
  (* the trace mirrors the plan: one root span, rows = result size *)
  (match Mirror_util.Trace.root tr with
  | None -> Alcotest.fail "no root span"
  | Some sp ->
    Alcotest.(check string) "root span is the root operator" (Mil.op_name plan)
      sp.Mirror_util.Trace.name;
    Alcotest.(check (option int))
      "root span rows" (Some (Bat.count result)) sp.Mirror_util.Trace.rows);
  (* untraced sessions report nothing *)
  let s2 = Mil.session c in
  ignore (Mil.exec s2 (Mil.Get "link"));
  Alcotest.(check int) "no profile by default" 0 (List.length (Mil.profile s2))

let test_nan_ordering_total () =
  let b =
    Bat.of_pairs Atom.TOid Atom.TFlt
      [ (oid 0, flt Float.nan); (oid 1, flt 1.0); (oid 2, flt Float.neg_infinity) ]
  in
  (* sorting with NaN must be deterministic, not crash or loop *)
  let sorted = Bat.sort_tail b in
  Alcotest.(check int) "all rows kept" 3 (Bat.count sorted);
  let twice = Bat.sort_tail (Bat.sort_tail b) in
  check_bat "idempotent under NaN" sorted twice;
  (* grouping by float tails via reverse also survives *)
  Alcotest.(check bool) "histogram total" true (Bat.count (Bat.histogram b) >= 2)

(* {1 Milopt} *)

module Milopt = Mirror_bat.Milopt

let test_milopt_rules () =
  let g = Mil.Get "x" in
  Alcotest.(check bool) "reverse/reverse" true (Milopt.rewrite (Mil.Reverse (Mil.Reverse g)) = g);
  Alcotest.(check bool) "mirror idempotent" true
    (Milopt.rewrite (Mil.Mirror (Mil.Mirror g)) = Mil.Mirror g);
  Alcotest.(check bool) "reverse of mirror" true
    (Milopt.rewrite (Mil.Reverse (Mil.Mirror g)) = Mil.Mirror g);
  let s = Mil.SelectBool (Mil.Get "p") in
  Alcotest.(check bool) "semijoin idempotent" true
    (Milopt.rewrite (Mil.Semijoin (Mil.Semijoin (g, s), s)) = Mil.Semijoin (g, s));
  Alcotest.(check bool) "slice of sort is topn" true
    (Milopt.rewrite (Mil.Slice (Mil.SortTail (g, true), 0, 5)) = Mil.TopN (g, 5, true));
  Alcotest.(check bool) "semijoin self" true (Milopt.rewrite (Mil.Semijoin (g, g)) = g);
  Alcotest.(check bool) "kunion self" true (Milopt.rewrite (Mil.Kunion (g, g)) = g);
  Alcotest.(check bool) "unique idempotent" true
    (Milopt.rewrite (Mil.Unique (Mil.Unique g)) = Mil.Unique g);
  (* rewrites nest: the inner double reverse disappears first *)
  let deep = Mil.GroupAggr (Bat.Sum, Mil.Reverse (Mil.Reverse (Mil.Reverse g))) in
  Alcotest.(check bool) "nested" true (Milopt.rewrite deep = Mil.GroupAggr (Bat.Sum, Mil.Reverse g))

let test_milopt_preserves_results () =
  let c = mil_fixture () in
  let plans =
    [
      Mil.Reverse (Mil.Reverse (Mil.Get "vals"));
      Mil.GroupAggr (Bat.Sum, Mil.Reverse (Mil.Reverse (Mil.Join (Mil.Reverse (Mil.Get "link"), Mil.Get "vals"))));
      Mil.Slice (Mil.SortTail (Mil.Get "vals", true), 0, 2);
    ]
  in
  List.iter
    (fun p ->
      let s1 = Mil.session c and s2 = Mil.session c in
      let before = Mil.exec s1 p in
      let after = Mil.exec s2 (Milopt.rewrite p) in
      check_bat "rewrite preserves result" before after)
    plans

(* A pair BAT split into a set's link and elem over one fresh oid
   range, then joined back, is the pair BAT. *)
let test_milopt_positional_join () =
  let split_join x b c = Mil.Join (Mil.Reverse (Mil.NumberHead (x, b)), Mil.NumberTail (x, c)) in
  let x = Mil.Get "vals" in
  Alcotest.(check bool) "fires" true (Milopt.rewrite (split_join x 100 100) = x);
  let _, fired = Milopt.rewrite_count (Mil.GroupAggr (Bat.Sum, split_join x 100 100)) in
  Alcotest.(check int) "fires once under an aggregate" 1 fired;
  Alcotest.(check bool) "different oid ranges: kept" true
    (Milopt.rewrite (split_join x 100 200) = split_join x 100 200);
  let y = Mil.Join (Mil.Reverse (Mil.NumberHead (x, 100)), Mil.NumberTail (Mil.Get "link", 100)) in
  Alcotest.(check bool) "different pair BATs: kept" true (Milopt.rewrite y = y);
  let c = mil_fixture () in
  Catalog.put c "dup" (bat_oi [ (12, 1); (10, 5); (12, 1); (11, -3) ]);
  Catalog.put c "strs"
    (Bat.of_pairs Atom.TInt Atom.TStr [ (Atom.Int 4, Atom.Str "a"); (Atom.Int 4, Atom.Str "b") ]);
  Catalog.put c "none" (Bat.empty Atom.TOid Atom.TFlt);
  List.iter
    (fun name ->
      let p = split_join (Mil.Get name) 7 7 in
      check_bat ("positional join of " ^ name) (Mil.exec (Mil.session c) p)
        (Mil.exec (Mil.session c) (Milopt.rewrite p)))
    [ "vals"; "link"; "dup"; "strs"; "none" ]

(* {1 QCheck properties} *)

let gen_small_bat =
  QCheck.make
    ~print:(fun pairs ->
      String.concat ";" (List.map (fun (h, t) -> Printf.sprintf "(%d,%d)" h t) pairs))
    QCheck.Gen.(list_size (int_range 0 30) (pair (int_range 0 9) (int_range (-20) 20)))

let to_bat pairs = bat_oi pairs

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse is an involution" ~count:200 gen_small_bat (fun pairs ->
      let b = to_bat pairs in
      Bat.equal b (Bat.reverse (Bat.reverse b)))

let prop_join_mirror_identity =
  QCheck.Test.make ~name:"join with mirror is identity" ~count:200 gen_small_bat
    (fun pairs ->
      (* join l (mirror (reverse l)) re-derives l's pairs (per row, as a multiset) *)
      let b = to_bat pairs in
      let m = Bat.mirror (Bat.reverse b) in
      (* mirror may contain duplicate heads; use unique to get the identity map *)
      let m = Bat.unique m in
      Bat.equal_as_set b (Bat.join b m))

let prop_semijoin_subset =
  QCheck.Test.make ~name:"semijoin yields a sub-multiset" ~count:200
    (QCheck.pair gen_small_bat gen_small_bat) (fun (p1, p2) ->
      let l = to_bat p1 and r = to_bat p2 in
      let s = Bat.semijoin l r in
      Bat.count (Bat.pair_diff s l) = 0)

let prop_semi_anti_partition =
  QCheck.Test.make ~name:"semijoin + antijoin partition the input" ~count:200
    (QCheck.pair gen_small_bat gen_small_bat) (fun (p1, p2) ->
      let l = to_bat p1 and r = to_bat p2 in
      Bat.count (Bat.semijoin l r) + Bat.count (Bat.antijoin l r) = Bat.count l)

let prop_group_sum_total =
  QCheck.Test.make ~name:"group sums add up to global sum" ~count:200 gen_small_bat
    (fun pairs ->
      let b = to_bat pairs in
      let grouped = Bat.group_aggr Bat.Sum b in
      Atom.equal (Bat.aggr_all Bat.Sum b) (Bat.aggr_all Bat.Sum grouped))

let prop_sort_is_permutation =
  QCheck.Test.make ~name:"sort_tail permutes rows" ~count:200 gen_small_bat (fun pairs ->
      let b = to_bat pairs in
      Bat.equal_as_set b (Bat.sort_tail b))

let prop_sort_sorted =
  QCheck.Test.make ~name:"sort_tail is ordered" ~count:200 gen_small_bat (fun pairs ->
      let b = Bat.sort_tail (to_bat pairs) in
      let ok = ref true in
      for i = 1 to Bat.count b - 1 do
        if Atom.compare (Bat.tail_at b (i - 1)) (Bat.tail_at b i) > 0 then ok := false
      done;
      !ok)

let prop_kunion_heads =
  QCheck.Test.make ~name:"kunion covers both head sets" ~count:200
    (QCheck.pair gen_small_bat gen_small_bat) (fun (p1, p2) ->
      let l = to_bat p1 and r = to_bat p2 in
      let u = Bat.kunion l r in
      Bat.count (Bat.antijoin l u) = 0 && Bat.count (Bat.antijoin r u) = 0)

let prop_unique_idempotent =
  QCheck.Test.make ~name:"unique is idempotent" ~count:200 gen_small_bat (fun pairs ->
      let b = to_bat pairs in
      Bat.equal (Bat.unique b) (Bat.unique (Bat.unique b)))

let prop_select_partition =
  QCheck.Test.make ~name:"select eq + ne partition rows" ~count:200
    (QCheck.pair gen_small_bat (QCheck.int_range (-20) 20)) (fun (pairs, v) ->
      let b = to_bat pairs in
      Bat.count (Bat.select_cmp b Bat.Eq (int v)) + Bat.count (Bat.select_cmp b Bat.Ne (int v))
      = Bat.count b)

(* reference implementations to pin the kernel's fast paths *)
let ref_join l r =
  List.concat_map
    (fun (lh, lt) ->
      List.filter_map (fun (rh, rt) -> if Atom.equal lt rh then Some (lh, rt) else None)
        (Bat.to_pairs r))
    (Bat.to_pairs l)

let prop_join_matches_reference =
  QCheck.Test.make ~name:"join agrees with the nested-loop reference" ~count:200
    (QCheck.pair gen_small_bat gen_small_bat) (fun (p1, p2) ->
      (* l : oid->oid (via abs), r : oid->int *)
      let l =
        Bat.of_pairs Atom.TOid Atom.TOid
          (List.map (fun (h, t) -> (oid h, oid (abs t))) p1)
      in
      let r = to_bat p2 in
      let expected = ref_join l r in
      let actual = Bat.to_pairs (Bat.join l r) in
      let sort =
        List.sort (fun (h1, t1) (h2, t2) ->
            let c = Atom.compare h1 h2 in
            if c <> 0 then c else Atom.compare t1 t2)
      in
      sort expected = sort actual)

let ref_group_sum b =
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  Bat.iter
    (fun h t ->
      let k = Atom.as_oid h in
      if not (Hashtbl.mem acc k) then order := k :: !order;
      Hashtbl.replace acc k (Atom.as_int t + Option.value ~default:0 (Hashtbl.find_opt acc k)))
    b;
  List.rev_map (fun k -> (oid k, int (Hashtbl.find acc k))) !order

let prop_group_sum_matches_reference =
  QCheck.Test.make ~name:"group_aggr sum agrees with reference" ~count:200 gen_small_bat
    (fun pairs ->
      let b = to_bat pairs in
      Bat.to_pairs (Bat.group_aggr Bat.Sum b) = ref_group_sum b)

let prop_semijoin_order_independent =
  QCheck.Test.make ~name:"semijoin result independent of right order" ~count:200
    (QCheck.pair gen_small_bat gen_small_bat) (fun (p1, p2) ->
      let l = to_bat p1 in
      let r1 = to_bat p2 in
      let r2 = to_bat (List.rev p2) in
      Bat.equal (Bat.semijoin l r1) (Bat.semijoin l r2))

let prop_mark_dense =
  QCheck.Test.make ~name:"mark produces dense oids" ~count:200 gen_small_bat (fun pairs ->
      let b = Bat.mark (to_bat pairs) 1000 in
      let ok = ref true in
      for i = 0 to Bat.count b - 1 do
        if Atom.as_oid (Bat.tail_at b i) <> 1000 + i then ok := false
      done;
      !ok)

(* {1 Allocation lint}

   The typed kernels must not box per cell: a boxed [Column.get] loop
   over n int rows costs >= 2n minor-heap words (one [Atom.Int] block
   per cell), while the monomorphic loops allocate only their result
   arrays — which at 100k elements exceed Max_young_wosize and go
   straight to the major heap.  So a minor-words delta well under n is
   a structural proof the fast path ran; n/8 leaves room for growable
   buffers' small doubling steps. *)

let test_alloc_lint () =
  let n = 100_000 in
  let b =
    Bat.make
      (Column.O (Array.init n (fun i -> i)))
      (Column.I (Array.init n (fun i -> (i * 7) mod 1000)))
  in
  let grp =
    Bat.make
      (Column.O (Array.init n (fun i -> i mod 64)))
      (Column.I (Array.init n (fun i -> (i * 13) mod 1000)))
  in
  List.iter
    (fun (label, f) ->
      f ();
      (* warmed up: measure one clean run *)
      let w0 = Gc.minor_words () in
      f ();
      let dw = Gc.minor_words () -. w0 in
      if dw > Float.of_int (n / 8) then
        Alcotest.failf "%s allocated %.0f minor words over %d rows (per-cell boxing?)"
          label dw n)
    [
      ("select_cmp int", fun () -> ignore (Bat.select_cmp b Bat.Lt (Atom.Int 500)));
      ( "select_range int",
        fun () -> ignore (Bat.select_range b (Atom.Int 100) (Atom.Int 700)) );
      ("calc_const add", fun () -> ignore (Bat.calc_const Bat.Add b (Atom.Int 3)));
      ("calc1 neg", fun () -> ignore (Bat.calc1 Bat.Neg b));
      ("group_aggr sum int", fun () -> ignore (Bat.group_aggr Bat.Sum grp));
      ("aggr_all sum int", fun () -> ignore (Bat.aggr_all Bat.Sum b));
    ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mirror_bat"
    [
      ( "atom",
        [
          Alcotest.test_case "order and equality" `Quick test_atom_order_and_equal;
          Alcotest.test_case "print/parse round-trip" `Quick test_atom_round_trip;
          Alcotest.test_case "accessors" `Quick test_atom_accessors;
        ] );
      ( "column",
        [
          Alcotest.test_case "basics" `Quick test_column_basics;
          Alcotest.test_case "type checking" `Quick test_column_type_check;
          Alcotest.test_case "gather" `Quick test_column_gather;
          Alcotest.test_case "dense" `Quick test_column_dense;
          Alcotest.test_case "builder growth" `Quick test_column_builder;
        ] );
      ( "bat-unary",
        [
          Alcotest.test_case "make checks lengths" `Quick test_make_length_check;
          Alcotest.test_case "reverse/mirror" `Quick test_reverse_mirror;
          Alcotest.test_case "mark/number" `Quick test_mark_number;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "calc" `Quick test_calc;
          Alcotest.test_case "numeric promotion" `Quick test_calc_promotion;
          Alcotest.test_case "calc2 head-aligned" `Quick test_calc2;
          Alcotest.test_case "calc2 positional" `Quick test_calc2_pos;
          Alcotest.test_case "slice/sort/topn" `Quick test_slice_sort_topn;
          Alcotest.test_case "sort stability" `Quick test_sort_stability;
          Alcotest.test_case "unique" `Quick test_unique;
        ] );
      ( "bat-select",
        [
          Alcotest.test_case "comparisons" `Quick test_selections;
          Alcotest.test_case "boolean select" `Quick test_select_bool;
          Alcotest.test_case "generic filter" `Quick test_filter;
        ] );
      ( "bat-binary",
        [
          Alcotest.test_case "join" `Quick test_join_basic;
          Alcotest.test_case "join fan-out" `Quick test_join_multimatch;
          Alcotest.test_case "join on strings" `Quick test_join_generic_strings;
          Alcotest.test_case "join type check" `Quick test_join_type_check;
          Alcotest.test_case "left outer join" `Quick test_leftouterjoin;
          Alcotest.test_case "semijoin/antijoin" `Quick test_semijoin_antijoin;
          Alcotest.test_case "kunion" `Quick test_kunion;
          Alcotest.test_case "pair ops" `Quick test_pair_ops;
          Alcotest.test_case "append" `Quick test_append;
        ] );
      ( "bat-group",
        [
          Alcotest.test_case "group aggregates" `Quick test_group_aggr;
          Alcotest.test_case "aggr_all" `Quick test_aggr_all;
          Alcotest.test_case "float group sum" `Quick test_float_group_sum;
          Alcotest.test_case "group_rank" `Quick test_group_rank;
          Alcotest.test_case "group_rank matches the old kernel" `Quick test_group_rank_oracle;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "basics" `Quick test_catalog_basics;
          Alcotest.test_case "dump/load round-trip" `Quick test_catalog_round_trip;
          Alcotest.test_case "a snapshot cut at a stanza boundary is refused" `Quick
            test_catalog_cut_at_stanza_refused;
        ] );
      ( "mil",
        [
          Alcotest.test_case "basic execution" `Quick test_mil_basic_exec;
          Alcotest.test_case "grouped sum plan" `Quick test_mil_group_sum_plan;
          Alcotest.test_case "memoisation (CSE)" `Quick test_mil_memoisation;
          Alcotest.test_case "cse off re-evaluates" `Quick test_mil_no_cse;
          Alcotest.test_case "literal + aggr_all" `Quick test_mil_lit_and_aggr_all;
          Alcotest.test_case "foreign dispatch" `Quick test_mil_foreign;
          Alcotest.test_case "unknown foreign fails" `Quick test_mil_unknown_foreign;
          Alcotest.test_case "size and pp" `Quick test_mil_size_and_pp;
        ] );
      ( "fast-paths",
        [
          Alcotest.test_case "dense-head join" `Quick test_join_dense_head;
          Alcotest.test_case "merge join on sorted oids" `Quick test_join_merge_sorted;
          Alcotest.test_case "hash vs merge agree" `Quick test_join_fastpaths_match_generic;
          Alcotest.test_case "semijoin dense + merge" `Quick test_semijoin_dense_and_merge;
          Alcotest.test_case "calc2 aligned vs indexed" `Quick test_calc2_aligned_vs_indexed;
          Alcotest.test_case "calc2 typed float" `Quick test_calc2_float_aligned;
          Alcotest.test_case "group_aggr windowed slots" `Quick test_group_aggr_windowed_slots;
          Alcotest.test_case "group_aggr typed float" `Quick test_group_aggr_float_sum_typed;
          Alcotest.test_case "select_cmp typed paths" `Quick test_select_cmp_typed_paths;
          Alcotest.test_case "mil profiling" `Quick test_mil_profiling;
          Alcotest.test_case "NaN ordering is total" `Quick test_nan_ordering_total;
          Alcotest.test_case "milopt rules" `Quick test_milopt_rules;
          Alcotest.test_case "milopt preserves results" `Quick test_milopt_preserves_results;
          Alcotest.test_case "milopt positional join" `Quick test_milopt_positional_join;
          Alcotest.test_case "no per-cell boxing (minor words)" `Quick test_alloc_lint;
        ] );
      ( "properties",
        qc
          [
            prop_reverse_involution;
            prop_join_mirror_identity;
            prop_semijoin_subset;
            prop_semi_anti_partition;
            prop_group_sum_total;
            prop_sort_is_permutation;
            prop_sort_sorted;
            prop_kunion_heads;
            prop_unique_idempotent;
            prop_select_partition;
            prop_mark_dense;
            prop_join_matches_reference;
            prop_group_sum_matches_reference;
            prop_semijoin_order_independent;
          ] );
    ]
