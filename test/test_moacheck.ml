(* Unit tests for the Moa-level analyzer and its companions:

   - envelope precision on queries with statically known answers;
   - structured (path/op-carrying) diagnostics on ill-shaped
     expressions;
   - the logical lint smells (unsatisfiable/constant selections,
     getBL over empty queries);
   - translation validation catching a deliberately broken test-only
     flattening rule, both directly and through Flatten/Plancheck;
   - the daemon topic-graph lint. *)

module Atom = Mirror_bat.Atom
module Mil = Mirror_bat.Mil
module Milprop = Mirror_bat.Milprop
module Shape = Mirror_core.Shape
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Expr = Mirror_core.Expr
module Parser = Mirror_core.Parser
module Corpus = Mirror_core.Corpus
module Flatten = Mirror_core.Flatten
module Plancheck = Mirror_core.Plancheck
module Extension = Mirror_core.Extension
module Typecheck = Mirror_core.Typecheck
module Moaprop = Mirror_core.Moaprop
module Moacheck = Mirror_core.Moacheck
module Daemon = Mirror_daemon.Daemon
module Daemonlint = Mirror_daemon.Daemonlint
module Standard = Mirror_daemon.Standard

let storage = lazy (Corpus.storage ())
let menv () = Moacheck.env_of_storage (Lazy.force storage)

let parse src =
  match Parser.parse_expr src with
  | Ok e -> e
  | Error m -> Alcotest.failf "parse %S: %s" src m

let infer_ok e =
  match Moacheck.verify (menv ()) e with
  | Ok prop -> prop
  | Error ds ->
    Alcotest.failf "analyzer rejected %s: %s" (Expr.to_string e)
      (String.concat "; " (List.map Moaprop.diag_to_string ds))

(* {1 Envelope precision} *)

let test_envelopes () =
  (* count over the 4-row corpus extent is exact *)
  (match infer_ok (parse "count(R)") with
  | Moaprop.Atomic { ty = Atom.TInt; lo = Some 4.0; hi = Some 4.0; _ } -> ()
  | p -> Alcotest.failf "count(R): expected int[4..4], got %s" (Moaprop.to_string p));
  (* a ranges over [-1..2], so the comparison folds to a constant *)
  (match infer_ok (parse "exists(select[THIS.a > 100](R))") with
  | Moaprop.Atomic { ty = Atom.TBool; bconst = Some false; _ } -> ()
  | p -> Alcotest.failf "exists(empty): expected const false, got %s" (Moaprop.to_string p));
  (* a statically true predicate keeps the cardinality exact *)
  (match Moaprop.card_of (infer_ok (parse "select[THIS.a < 100](R)")) with
  | Some { Milprop.lo = 4; hi = Some 4 } -> ()
  | c ->
    Alcotest.failf "select(true): expected |4..4|, got %s"
      (match c with
      | Some c -> Format.asprintf "%a" Moaprop.pp_card c
      | None -> "no card"));
  (* map preserves cardinality *)
  (match Moaprop.card_of (infer_ok (parse "map[THIS.a](R)")) with
  | Some { Milprop.lo = 4; hi = Some 4 } -> ()
  | _ -> Alcotest.fail "map: expected |4..4|");
  (* the distinct idiom union(x, x) cannot grow x *)
  let m = parse "map[THIS.a](R)" in
  match Moaprop.card_of (infer_ok (Expr.Union (m, m))) with
  | Some { Milprop.lo; hi = Some 4 } when lo >= 1 -> ()
  | _ -> Alcotest.fail "union(x, x): expected |1..4|"

(* {1 Structured diagnostics} *)

let typecheck_err e =
  match Typecheck.infer (Mirror_core.Storage.typecheck_env (Lazy.force storage)) e with
  | Ok ty ->
    Alcotest.failf "expected a type error for %s, got %s" (Expr.to_string e)
      (Types.to_string ty)
  | Error d -> d

let test_diagnostics () =
  let d = typecheck_err (Expr.Extent "nope") in
  Alcotest.(check string) "unknown extent op" "extent" d.Moaprop.op;
  Alcotest.(check bool) "unknown extent severity" true (d.Moaprop.severity = Moaprop.Error);
  let d = typecheck_err (Expr.Var "x") in
  Alcotest.(check string) "unbound var op" "var" d.Moaprop.op;
  let d = typecheck_err (Expr.Field (Expr.lit_int 1, "a")) in
  Alcotest.(check string) "field of non-tuple op" "field" d.Moaprop.op;
  let d =
    typecheck_err (Expr.Select { v = "x"; pred = Expr.lit_int 3; src = Expr.Extent "R" })
  in
  Alcotest.(check bool) "non-bool pred is an error" true (d.Moaprop.severity = Moaprop.Error);
  let d = typecheck_err (Expr.Aggr (Mirror_bat.Bat.Count, Expr.lit_int 1)) in
  Alcotest.(check bool) "aggregate over atom is an error" true
    (d.Moaprop.severity = Moaprop.Error);
  (* the deep path locates the offending node *)
  let d = typecheck_err (parse "count(map[THIS.a + nope](R))") in
  Alcotest.(check string) "nested unknown extent op" "extent" d.Moaprop.op;
  Alcotest.(check bool)
    (Printf.sprintf "path %S descends through the map body" d.Moaprop.path)
    true
    (String.length d.Moaprop.path > String.length "extent");
  (* Moacheck degrades to the same diagnostics without raising *)
  match Moacheck.verify (menv ()) (Expr.Extent "nope") with
  | Ok p -> Alcotest.failf "verify accepted an unknown extent: %s" (Moaprop.to_string p)
  | Error (d :: _) ->
    Alcotest.(check bool) "verify reports an Error diag" true
      (d.Moaprop.severity = Moaprop.Error)
  | Error [] -> Alcotest.fail "verify returned an empty diagnostic list"

(* {1 Logical lint smells} *)

let has_diag ds sub =
  List.exists
    (fun (d : Moaprop.diag) ->
      let msg = d.Moaprop.message in
      let n = String.length sub in
      let rec scan i = i + n <= String.length msg && (String.sub msg i n = sub || scan (i + 1)) in
      scan 0)
    ds

let test_lint () =
  let lint e = Moacheck.lint (menv ()) e in
  let unsat =
    Expr.Select
      { v = "x";
        pred = Expr.Binop (Mirror_bat.Bat.CmpOp Mirror_bat.Bat.Lt, Expr.lit_int 1, Expr.lit_int 0);
        src = Expr.Extent "R" }
  in
  Alcotest.(check bool) "unsatisfiable selection flagged" true
    (has_diag (lint unsat) "unsatisfiable");
  let tauto =
    Expr.Select
      { v = "x";
        pred = Expr.Binop (Mirror_bat.Bat.CmpOp Mirror_bat.Bat.Lt, Expr.lit_int 0, Expr.lit_int 1);
        src = Expr.Extent "R" }
  in
  Alcotest.(check bool) "constantly true selection flagged" true
    (has_diag (lint tauto) "statically true");
  let empty_query =
    Expr.Map
      { v = "x";
        body =
          Expr.getbl
            (Expr.Field (Expr.Var "x", "c"))
            (Expr.Lit (Value.VSet [], Types.Set (Types.Atomic Atom.TStr)));
        src = Expr.Extent "R" }
  in
  Alcotest.(check bool) "getBL with empty query flagged" true
    (has_diag (lint empty_query) "empty");
  (* a clean corpus query produces no lint output at all *)
  Alcotest.(check int) "clean query lints clean" 0
    (List.length (lint (parse "select[THIS.a > 0](R)")))

(* {1 Translation validation: a deliberately broken flattening rule}

   BRK owns one operator, [brk_two], whose logical contract (reference
   semantics and envelope) is "a set of exactly two ints" — but whose
   flattening rule emits a three-element bundle.  The analyzer accepts
   the expression (the logical side is consistent); only translation
   validation can see the physical side disagree. *)

module Brk : Extension.S = struct
  let name = "BRK"
  let arity = 0
  let check_type _ = Ok ()
  let ops = [ "brk_two" ]

  let op_type ~op:_ ~args =
    match args with
    | [ Types.Set (Types.Atomic Atom.TInt) ] -> Ok (Types.Set (Types.Atomic Atom.TInt))
    | _ -> Error "brk_two expects a SET<int>"

  let op_eval _ ~op:_ ~args:_ = Value.VSet [ Value.Atom (Atom.Int 9); Value.Atom (Atom.Int 9) ]

  let op_flatten (env : Extension.flat_env) ~op:_ ~arg_tys:_ ~raw:_ ~args:_ =
    (* three elements where the contract says two *)
    let base = env.Extension.fresh 3 in
    let link =
      Mil.Lit
        { hty = Atom.TOid;
          tty = Atom.TOid;
          pairs = List.init 3 (fun i -> (Atom.Oid (base + i), Atom.Oid 0)) }
    in
    let elem =
      Mil.Lit
        { hty = Atom.TOid;
          tty = Atom.TInt;
          pairs = List.init 3 (fun i -> (Atom.Oid (base + i), Atom.Int 9)) }
    in
    Shape.Set { link; elem = Shape.Atomic elem }

  let op_envelope ~op:_ ~args:_ ~ty:_ ~top:_ =
    Moaprop.Set { card = Milprop.exactly 2; elem = Moaprop.atomic Atom.TInt }

  let materialize _ ~recurse:_ ~path:_ ~ty_args:_ ~dom:_ = failwith "BRK is not storable"
  let filter_flat ~recurse:_ ~meta:_ ~bats:_ ~subs:_ ~survivors:_ = failwith "BRK bundles"
  let rebase_flat _ ~recurse:_ ~meta:_ ~bats:_ ~subs:_ ~m:_ = failwith "BRK bundles"
  let reify ~members:_ ~atom:_ ~recurse:_ ~meta:_ ~bats:_ ~subs:_ ~ctx:_ = failwith "BRK bundles"
  let foreign_ops = []

  let prop_flat ~ctx ~prop:_ ~meta:_ ~nbats ~nsubs =
    (List.init nbats (fun _ -> None), List.init nsubs (fun _ -> (Moaprop.Unknown, ctx)))

  let bind_value ~path:_ ~recurse:_ ~ty_args:_ v = v
end

let brk_expr () =
  Extension.register (module Brk);
  Expr.ExtOp
    { op = "brk_two";
      args =
        [ Expr.Lit
            ( Value.VSet [ Value.Atom (Atom.Int 1); Value.Atom (Atom.Int 2) ],
              Types.Set (Types.Atomic Atom.TInt) )
        ] }

let test_broken_rule () =
  let st = Lazy.force storage in
  let e = brk_expr () in
  (* the logical side is fine on its own *)
  ignore (infer_ok e);
  (* validation sees the physical bundle disagree *)
  let shape = Flatten.compile st e in
  (match Moacheck.validate st e (Mirror_core.Storage.analyze st shape) shape with
  | Ok (_ : int) -> Alcotest.fail "validate certified a broken flattening rule"
  | Error ds ->
    Alcotest.(check bool) "mismatch names the flattening" true
      (has_diag ds "flattening broke the envelope"));
  (* the checked compile path refuses outright *)
  (match Flatten.compile ~check:true st e with
  | exception Flatten.Ill_formed _ -> ()
  | _ -> Alcotest.fail "compile ~check:true accepted a broken flattening rule");
  (* and so does full vetting *)
  match Plancheck.vet st e with
  | Ok (_ : Plancheck.vetted) -> Alcotest.fail "vet certified a broken flattening rule"
  | Error _ -> ()

(* {1 Daemon topic-graph lint} *)

let quiet = fun _ _ -> []

let pipeline_roots = [ "image.new"; "annotation.new"; "collection.complete"; "query.formulate" ]
let pipeline_sinks = [ "features.ready"; "annotation.indexed"; "clustering.done"; "thesaurus.ready" ]

let test_daemonlint () =
  (* the shipped daemon set is clean under the orchestrator's topics *)
  let ds = Daemonlint.lint ~roots:pipeline_roots ~sinks:pipeline_sinks (Standard.all ()) in
  Alcotest.(check int) "standard set lints clean" 0 (List.length ds);
  (* an orphan subscription is an error *)
  let orphan = Daemon.make ~name:"x" ~topics:[ "nowhere" ] quiet in
  let ds = Daemonlint.lint ~roots:[] [ orphan ] in
  Alcotest.(check bool) "orphan subscription flagged" true
    (List.exists
       (fun (d : Daemonlint.diag) -> d.Daemonlint.severity = Daemonlint.Error)
       (Daemonlint.errors ds));
  (* a publication nothing consumes dead-letters: warning, not error *)
  let noisy = Daemon.make ~name:"a" ~topics:[ "in" ] ~publishes:[ "out" ] quiet in
  let ds = Daemonlint.lint ~roots:[ "in" ] [ noisy ] in
  Alcotest.(check int) "dead-letter set has no errors" 0 (List.length (Daemonlint.errors ds));
  Alcotest.(check bool) "dead-letter publication flagged" true
    (List.exists (fun (d : Daemonlint.diag) -> d.Daemonlint.severity = Daemonlint.Warning) ds);
  (* a daemon fed only by a dead daemon can never fire *)
  let dead = Daemon.make ~name:"a" ~topics:[ "in" ] ~publishes:[ "mid" ] quiet in
  let downstream = Daemon.make ~name:"b" ~topics:[ "mid" ] quiet in
  let ds = Daemonlint.lint ~roots:[] [ dead; downstream ] in
  Alcotest.(check bool) "unreachable daemon flagged" true
    (List.exists
       (fun (d : Daemonlint.diag) ->
         d.Daemonlint.severity = Daemonlint.Error && d.Daemonlint.subject = "b")
       ds)

let () =
  Alcotest.run "moacheck"
    [
      ( "analyzer",
        [
          Alcotest.test_case "envelope precision" `Quick test_envelopes;
          Alcotest.test_case "structured diagnostics" `Quick test_diagnostics;
          Alcotest.test_case "logical lint smells" `Quick test_lint;
        ] );
      ( "validation",
        [ Alcotest.test_case "broken flattening rule is caught" `Quick test_broken_rule ] );
      ( "daemons",
        [ Alcotest.test_case "topic-graph lint" `Quick test_daemonlint ] );
    ]
