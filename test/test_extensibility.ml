(* Proof of the paper's "open complex object system": a brand-new
   structure — MSET, a multiset with explicit multiplicities — defined
   entirely outside the library through the public Extension registry,
   and exercised through the full stack: DDL typing, storage, both
   evaluators, filtering and reification. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Mil = Mirror_bat.Mil
module Column = Mirror_bat.Column
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Expr = Mirror_core.Expr
module Shape = Mirror_core.Shape
module Extension = Mirror_core.Extension
module Storage = Mirror_core.Storage
module Naive = Mirror_core.Naive
module Eval = Mirror_core.Eval
module Parser = Mirror_core.Parser
module Typecheck = Mirror_core.Typecheck
module Bootstrap = Mirror_core.Bootstrap

let () = Bootstrap.ensure ()

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e
let value_testable = Alcotest.testable Value.pp Value.equal

(* {1 The MSET extension} *)

let mset_value pairs =
  Value.Xv
    {
      ext = "MSET";
      meta = [];
      items =
        List.map (fun (a, n) -> Value.Tup [ ("elem", Value.Atom a); ("n", Value.int n) ]) pairs;
    }

let mset_pairs = function
  | Value.Xv { ext = "MSET"; items; _ } ->
    List.map
      (fun item ->
        ( Value.as_atom (Value.field_exn item "elem"),
          Mirror_bat.Atom.as_int (Value.as_atom (Value.field_exn item "n")) ))
      items
  | _ -> failwith "not an MSET"

module MSET = struct
  let name = "MSET"
  let arity = 1

  let check_type = function
    | [ Types.Atomic _ ] -> Ok ()
    | _ -> Error "MSET takes one atomic element type"

  let ops = [ "mtotal" ]

  let op_type ~op ~args =
    match (op, args) with
    | "mtotal", [ Types.Xt ("MSET", _) ] -> Ok (Types.Atomic Atom.TInt)
    | _ -> Error "mtotal expects an MSET<_>"

  let op_eval _env ~op ~args =
    match (op, args) with
    | "mtotal", [ self ] ->
      Value.int (List.fold_left (fun acc (_, n) -> acc + n) 0 (mset_pairs self))
    | _ -> failwith "MSET: bad operands"

  let op_flatten env ~op ~arg_tys:_ ~raw:_ ~args =
    match (op, args) with
    | "mtotal", [ Shape.Xstruct { ext = "MSET"; bats = [ link; _v; mult ]; _ } ] ->
      let pairs = Mil.Join (Mil.Reverse link, mult) in
      let summed = Mil.GroupAggr (Bat.Sum, pairs) in
      Shape.Atomic (Mil.LeftOuterJoin (env.Extension.dom, summed, Atom.Int 0))
    | _ -> failwith "MSET: bad flattened operands"

  let materialize env ~recurse:_ ~path ~ty_args ~dom =
    let elem_base =
      match ty_args with [ Types.Atomic b ] -> b | _ -> failwith "MSET: bad type args"
    in
    let total = List.fold_left (fun acc (_, v) -> acc + List.length (mset_pairs v)) 0 dom in
    let base = env.Extension.fresh_store total in
    let next = ref base in
    let hb = Column.Builder.create Atom.TOid in
    let cb = Column.Builder.create Atom.TOid in
    let vb = Column.Builder.create elem_base in
    let nb = Column.Builder.create Atom.TInt in
    List.iter
      (fun (ctx, v) ->
        List.iter
          (fun (a, n) ->
            Column.Builder.add_oid hb !next;
            incr next;
            Column.Builder.add_oid cb ctx;
            Column.Builder.add vb a;
            Column.Builder.add_int nb n)
          (mset_pairs v))
      dom;
    let heads = Column.Builder.finish hb in
    let cat = env.Extension.catalog in
    Mirror_bat.Catalog.put cat (path ^ "#in") (Bat.make heads (Column.Builder.finish cb));
    Mirror_bat.Catalog.put cat (path ^ "#val") (Bat.make heads (Column.Builder.finish vb));
    Mirror_bat.Catalog.put cat (path ^ "#mult") (Bat.make heads (Column.Builder.finish nb));
    Shape.Xstruct
      {
        ext = name;
        meta = [];
        bats = [ Mil.Get (path ^ "#in"); Mil.Get (path ^ "#val"); Mil.Get (path ^ "#mult") ];
        subs = [];
      }

  let filter_flat ~recurse:_ ~meta:_ ~bats ~subs:_ ~survivors =
    match bats with
    | [ link; v; mult ] ->
      let link' = Mil.Reverse (Mil.Semijoin (Mil.Reverse link, survivors)) in
      Shape.Xstruct
        {
          ext = name;
          meta = [];
          bats = [ link'; Mil.Semijoin (v, link'); Mil.Semijoin (mult, link') ];
          subs = [];
        }
    | _ -> failwith "MSET: malformed bundle"

  let rebase_flat env ~recurse:_ ~meta:_ ~bats ~subs:_ ~m =
    match bats with
    | [ link; v; mult ] ->
      let j = Mil.Join (m, Mil.Reverse link) in
      let base = env.Extension.fresh 0 in
      let link' = Mil.NumberHead (j, base) in
      let m2 = Mil.NumberTail (j, base) in
      Shape.Xstruct
        {
          ext = name;
          meta = [];
          bats = [ link'; Mil.Join (m2, v); Mil.Join (m2, mult) ];
          subs = [];
        }
    | _ -> failwith "MSET: malformed bundle"

  let reify ~members ~atom ~recurse:_ ~meta:_ ~bats ~subs:_ ~ctx =
    match bats with
    | [ link; v; mult ] ->
      mset_value (List.map (fun o -> (atom v o, Atom.as_int (atom mult o))) (members link ctx))
    | _ -> failwith "MSET: malformed bundle"

  let restore _env ~recurse:_ ~path ~ty_args:_ =
    Shape.Xstruct
      {
        ext = name;
        meta = [];
        bats = [ Mil.Get (path ^ "#in"); Mil.Get (path ^ "#val"); Mil.Get (path ^ "#mult") ];
        subs = [];
      }

  let foreign_ops = []

  (* Sound defaults for the Moa-level analyzer: claim nothing about
     operator results or the flattened bundle. *)
  let op_envelope ~op:_ ~args:_ ~ty ~top = top ty

  let prop_flat ~ctx:_ ~prop:_ ~meta:_ ~nbats ~nsubs =
    ( List.init nbats (fun _ -> None),
      List.init nsubs (fun _ -> (Mirror_core.Moaprop.Unknown, Mirror_bat.Milprop.any_card)) )

  let bind_value ~path:_ ~recurse:_ ~ty_args:_ v = v
end

let () = Extension.register (module MSET : Extension.S)

(* {1 Fixtures} *)

let storage_with_msets () =
  let st = Storage.create () in
  let ty =
    Types.Set
      (Types.Tuple
         [
           ("name", Types.Atomic Atom.TStr);
           ("bag", Types.Xt ("MSET", [ Types.Atomic Atom.TStr ]));
         ])
  in
  ok (Storage.define st ~name:"Inventory" ty);
  let row nm pairs =
    Value.Tup
      [ ("name", Value.str nm); ("bag", mset_value (List.map (fun (s, n) -> (Atom.Str s, n)) pairs)) ]
  in
  ignore
    (ok
       (Storage.load st ~name:"Inventory"
          [
            row "alice" [ ("apple", 3); ("pear", 1) ];
            row "bob" [ ("apple", 2) ];
            row "carol" [];
          ]));
  st

(* The parser doesn't know MSET ops, so build expressions directly. *)
let mtotal_of_bag v = Expr.ExtOp { op = "mtotal"; args = [ Expr.Field (Expr.Var v, "bag") ] }

let map_mtotal =
  Expr.Map { v = "x"; body = mtotal_of_bag "x"; src = Expr.Extent "Inventory" }

let test_registered () =
  Alcotest.(check (list string)) "structures" [ "CONTREP"; "LIST"; "MSET" ]
    (Extension.registered ());
  Alcotest.(check bool) "op lookup" true (Extension.find_op "mtotal" <> None)

let test_ddl_typechecks () =
  let st = storage_with_msets () in
  match Typecheck.infer (Storage.typecheck_env st) map_mtotal with
  | Ok ty -> Alcotest.(check string) "result type" "SET< Atomic<int> >" (Types.to_string ty)
  | Error e -> Alcotest.fail (Typecheck.diag_to_string e)

let test_ddl_arity_checked () =
  let st = Storage.create () in
  match Storage.define st ~name:"Bad" (Types.Set (Types.Xt ("MSET", []))) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "arity violation accepted"

let test_both_evaluators_agree () =
  let st = storage_with_msets () in
  let naive = Naive.eval st map_mtotal in
  let flat = ok (Eval.query_value st map_mtotal) in
  Alcotest.check value_testable "mtotal agree" naive flat;
  Alcotest.check value_testable "values"
    (Value.VSet [ Value.int 4; Value.int 2; Value.int 0 ])
    flat

let test_filtering_through_select () =
  let st = storage_with_msets () in
  (* select rows whose bag holds more than one distinct item, then total *)
  let sel =
    Expr.Select
      {
        v = "x";
        pred = Expr.Binop (Bat.CmpOp Bat.Gt, mtotal_of_bag "x", Expr.lit_int 2);
        src = Expr.Extent "Inventory";
      }
  in
  let q = Expr.Map { v = "y"; body = Expr.Field (Expr.Var "y", "name"); src = sel } in
  let naive = Naive.eval st q in
  let flat = ok (Eval.query_value st q) in
  Alcotest.check value_testable "filtered agree" naive flat;
  Alcotest.check value_testable "alice only" (Value.VSet [ Value.str "alice" ]) flat

let test_reify_round_trip () =
  let st = storage_with_msets () in
  let q = Expr.Map { v = "x"; body = Expr.Field (Expr.Var "x", "bag"); src = Expr.Extent "Inventory" } in
  let naive = Naive.eval st q in
  let flat = ok (Eval.query_value st q) in
  Alcotest.check value_testable "whole MSET values round-trip" naive flat

let test_join_rebasing () =
  let st = storage_with_msets () in
  (* self-join on name equality duplicates each row's bag into the pair *)
  let q =
    Expr.Map
      {
        v = "p";
        body = Expr.ExtOp { op = "mtotal"; args = [ Expr.Field (Expr.Field (Expr.Var "p", "left"), "bag") ] };
        src =
          Expr.Join
            {
              v1 = "a";
              v2 = "b";
              pred =
                Expr.Binop
                  ( Bat.CmpOp Bat.Eq,
                    Expr.Field (Expr.Var "a", "name"),
                    Expr.Field (Expr.Var "b", "name") );
              left = Expr.Extent "Inventory";
              right = Expr.Extent "Inventory";
              l1 = "left";
              l2 = "right";
            };
      }
  in
  let naive = Naive.eval st q in
  let flat = ok (Eval.query_value st q) in
  Alcotest.check value_testable "rebased MSET totals agree" naive flat

let () =
  Alcotest.run "mirror_extensibility"
    [
      ( "mset",
        [
          Alcotest.test_case "registration" `Quick test_registered;
          Alcotest.test_case "typing through DDL" `Quick test_ddl_typechecks;
          Alcotest.test_case "arity validation" `Quick test_ddl_arity_checked;
          Alcotest.test_case "evaluators agree" `Quick test_both_evaluators_agree;
          Alcotest.test_case "filtering" `Quick test_filtering_through_select;
          Alcotest.test_case "reification round-trip" `Quick test_reify_round_trip;
          Alcotest.test_case "join rebasing" `Quick test_join_rebasing;
        ] );
    ]
