(* Property-based fuzzing of the MIL kernel pipeline.

   A seeded, deterministic generator grows a pool of well-typed random
   plans over a small fixture catalog: each step wraps randomly chosen
   pool members in a randomly chosen operator whose typing precondition
   they satisfy.  Every generated plan is checked for three properties:

     (a) the static analyzer accepts it and the executed result lies
         inside the inferred Milcheck/Milprop envelope;
     (b) Milopt.rewrite preserves the result bit-for-bit (Bat.equal,
         which is order-sensitive);
     (c) executing under a trace records the plan's root span with a
         row count equal to the actual result size;
     (e) Boundcheck's resource envelope is sound: every node's actual
         row count sits inside its interval, measured bytes never
         exceed the resident upper bound, and estimates stay inside
         the sound intervals.

   The plan generator itself lives in {!Milgen} (shared with the
   parallel-kernel differential suite); see there for the operators it
   deliberately excludes. *)

open Milgen
module Trace = Mirror_util.Trace
module Milcheck = Mirror_bat.Milcheck
module Milopt = Mirror_bat.Milopt
module Milprop = Mirror_bat.Milprop
module Effcheck = Mirror_bat.Effcheck
module Boundcheck = Mirror_bat.Boundcheck

let plans_to_generate = 500
let max_pool_rows = 1000 (* plans producing more rows are tested but not pooled *)

let failf plan fmt =
  Printf.ksprintf
    (fun msg -> Alcotest.failf "%s\nplan:\n%s" msg (Mil.to_string plan))
    fmt

(* property (a): verified envelope contains the executed result *)
let check_envelope a catalog plan =
  match Milcheck.verify a with
  | Error ds ->
    failf plan "analyzer rejected a generated plan: %s"
      (String.concat "; " (List.map Milcheck.diag_to_string ds))
  | Ok () -> (
    let inferred = Milcheck.prop a plan in
    let b = Mil.exec (Mil.session catalog) plan in
    match Milprop.envelope_ok ~inferred ~actual:(Milprop.of_bat b) with
    | Ok () -> b
    | Error msg ->
      failf plan "result escaped the inferred envelope %s: %s"
        (Milprop.to_string inferred) msg)

(* property (b): the peephole rewrite preserves results bit-for-bit *)
let check_rewrite catalog plan b =
  let rewritten = Milopt.rewrite plan in
  let b' = Mil.exec (Mil.session catalog) rewritten in
  if not (Bat.equal b b') then
    failf plan "Milopt.rewrite changed the result\nrewritten:\n%s"
      (Mil.to_string rewritten)

(* property (c): the root trace span reports the actual row count *)
let check_trace catalog plan b =
  let tr = Trace.create () in
  ignore (Mil.exec (Mil.session ~trace:tr catalog) plan);
  match Trace.root tr with
  | None -> failf plan "traced execution recorded no span"
  | Some sp ->
    if sp.Trace.name <> Mil.op_name plan then
      failf plan "root span %S, expected %S" sp.Trace.name (Mil.op_name plan);
    (match sp.Trace.rows with
    | Some rows when rows = Bat.count b -> ()
    | Some rows -> failf plan "root span rows %d, actual %d" rows (Bat.count b)
    | None -> failf plan "root span has no row count");
    (* every non-memo span in the tree must carry a row count *)
    Trace.fold
      (fun () (s : Trace.span) ->
        if s.Trace.rows = None && not (List.mem_assoc "memo" s.Trace.attrs) then
          failf plan "span %S has no row count" s.Trace.name)
      () sp

(* property (d): the effect analyzer finds no hazards in kernel-only
   plans, and the runtime sanitizer — fed every generated plan through
   one shared CSE session, so cross-plan physical sharing accumulates —
   accepts the observed aliasing and produces the same result *)
let check_effects a san plan b =
  (match (Effcheck.verdict a).Effcheck.hazards with
  | [] -> ()
  | ds ->
    failf plan "effect hazards on a kernel-only plan: %s"
      (String.concat "; " (List.map Milcheck.diag_to_string ds)));
  match Effcheck.exec san plan with
  | sb ->
    if not (Bat.equal b sb) then failf plan "sanitized execution changed the result"
  | exception Effcheck.Violation msg -> failf plan "effect sanitizer: %s" msg

(* property (e): the resource envelope is sound and consistent.  Every
   node of the plan is executed through one shared CSE session (memo
   hits across plans, like the sanitizer's); actual per-node row counts
   must sit inside the analysis's sound intervals and the measured
   bytes of this plan's materialised nodes (physically shared columns
   counted once) must stay under the resident upper bound. *)
let check_bounds a bsess plan =
  let bounds = Boundcheck.footprints a in
  (match bounds.Boundcheck.diags with
  | [] -> ()
  | ds ->
    failf plan "bound diagnostics on a kernel-only plan: %s"
      (String.concat "; " (List.map Milcheck.diag_to_string ds)));
  let bats = ref [] in
  List.iter
    (fun (f : Milcheck.fact) ->
      let node = f.Milcheck.node and rows = f.Milcheck.prop.Milprop.card in
      let b = Mil.exec bsess node in
      bats := b :: !bats;
      let n = Bat.count b in
      if n < rows.Milprop.lo then
        failf plan "node %s: %d rows below the sound lo %d" (Mil.op_name node) n
          rows.Milprop.lo;
      (match rows.Milprop.hi with
      | Some hi when n > hi ->
        failf plan "node %s: %d rows above the sound hi %d" (Mil.op_name node) n hi
      | _ -> ());
      if f.Milcheck.est < rows.Milprop.lo then
        failf plan "node %s: estimate %d below the sound lo" (Mil.op_name node)
          f.Milcheck.est;
      match rows.Milprop.hi with
      | Some hi when f.Milcheck.est > hi ->
        failf plan "node %s: estimate %d above the sound hi %d" (Mil.op_name node)
          f.Milcheck.est hi
      | _ -> ())
    a.Milcheck.nodes;
  match bounds.Boundcheck.resident.Boundcheck.fp_hi with
  | Some hi ->
    let measured = Boundcheck.bats_bytes !bats in
    if measured > hi then
      failf plan "measured %d bytes above the resident bound %d" measured hi
  | None -> failf plan "kernel-only plan left unbounded"

let test_fuzz () =
  let catalog = fixture () in
  let env = Milcheck.env catalog in
  let san = Effcheck.sanitizer env (Mil.session catalog) in
  let bsess = Mil.session catalog in
  let g = Prng.create 20260807 in
  let seed_pool =
    List.map
      (fun name ->
        let b = Catalog.get catalog name in
        { plan = Mil.Get name; hty = Bat.hty b; tty = Bat.tty b })
      [ "ints"; "ints2"; "flts"; "strs"; "bools"; "link"; "empty" ]
  in
  let pool = ref seed_pool in
  let pooled = ref 0 in
  for _ = 1 to plans_to_generate do
    let plan, hty, tty = generate g !pool in
    (* one analysis per plan serves properties (a), (d) and (e) *)
    let a = Milcheck.analyze env [ plan ] in
    let b = check_envelope a catalog plan in
    check_rewrite catalog plan b;
    check_trace catalog plan b;
    check_effects a san plan b;
    check_bounds a bsess plan;
    if Bat.count b <= max_pool_rows then begin
      pool := { plan; hty; tty } :: !pool;
      incr pooled
    end
  done;
  (match Effcheck.finish san with
  | () -> ()
  | exception Effcheck.Violation msg ->
    Alcotest.failf "effect sanitizer (final fingerprint pass): %s" msg);
  Alcotest.(check bool)
    (Printf.sprintf "pool kept growing (%d of %d plans pooled)" !pooled plans_to_generate)
    true
    (!pooled > plans_to_generate / 2)

(* determinism: the same seed generates the same plan sequence *)
let test_deterministic () =
  let sequence () =
    let catalog = fixture () in
    let g = Prng.create 42 in
    let pool =
      ref
        (List.map
           (fun name ->
             let b = Catalog.get catalog name in
             { plan = Mil.Get name; hty = Bat.hty b; tty = Bat.tty b })
           [ "ints"; "flts"; "bools"; "link" ])
    in
    List.init 50 (fun _ ->
        let plan, hty, tty = generate g !pool in
        pool := { plan; hty; tty } :: !pool;
        Mil.to_string plan)
  in
  Alcotest.(check (list string)) "same seed, same plans" (sequence ()) (sequence ())

(* {1 Moa-level fuzzing}

   The same seeded pool-growth scheme one level up: random well-typed
   Moa expressions over the shared corpus database, each checked for

     (a) Typecheck accepts it (a generator bug otherwise);
     (b) Moacheck produces no Error diagnostic — the analyzer must
         never reject a well-typed expression (zero false errors);
     (c) the Naive reference result lies inside the inferred Moa
         envelope (Moaprop.value_ok);
     (d) Flatten.compile succeeds and Moacheck.validate certifies the
         flattening: the logical envelope intersects the Milcheck
         physical envelope on every BAT of the bundle;
     (e) Eval.query, the flattened pipeline, returns the Naive result.

   Deliberately excluded constructs: Div/Pow (division by a randomly
   zero constant; float rounding), Log/Exp/Sqrt (NaN domains), Mul
   (deep random chains overflow the int range, breaking envelope
   soundness — see DESIGN.md), Nest/Unnest (compile only at the top
   level, so they cannot be wrapped), and binder-dependent getBL
   queries (not flattenable by contract).  CONTREP and LIST coverage
   comes from seeding the pool with the corpus query battery. *)

module Expr = Mirror_core.Expr
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Typecheck = Mirror_core.Typecheck
module Moacheck = Mirror_core.Moacheck
module Moaprop = Mirror_core.Moaprop
module Naive = Mirror_core.Naive
module Eval = Mirror_core.Eval
module Flatten = Mirror_core.Flatten
module Storage = Mirror_core.Storage
module Corpus = Mirror_core.Corpus
module Parser = Mirror_core.Parser

let moa_to_generate = 500
let moa_max_size = 40 (* bigger expressions are tested but not pooled; also
                         bounds Add/Sub chain depth so integer envelope ends
                         stay exactly representable as floats *)

type mentry = { expr : Expr.t; ty : Types.t }

let fresh_var =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "f%d" !n

let is_num_ty = function Types.Atomic (Atom.TInt | Atom.TFlt) -> true | _ -> false
let is_atomic_ty = function Types.Atomic _ -> true | _ -> false
let set_elem = function Types.Set e -> Some e | _ -> None
let list_elem = function Types.Xt ("LIST", [ e ]) -> Some e | _ -> None

let num_set e = match set_elem e.ty with Some t -> is_num_ty t | None -> false
let atom_set e = match set_elem e.ty with Some t -> is_atomic_ty t | None -> false

let moa_lit g = function
  | Atom.TInt -> Expr.lit_int (Prng.int g 60 - 30)
  | Atom.TFlt -> Expr.lit_flt (Float.of_int (Prng.int g 80 - 40) /. 4.0)
  | Atom.TStr -> Expr.lit_str (Prng.choose g words)
  | Atom.TBool -> Expr.lit_bool (Prng.bool g)
  | Atom.TOid -> Expr.lit_int 0 (* never requested *)

(* A literal set of [n] numbers; flt elements are small halves, so
   they meet int elements of other operands exactly. *)
let moa_lit_set g base n =
  let ty = Types.Set (Types.Atomic base) in
  let item () =
    match base with
    | Atom.TFlt -> Value.Atom (Atom.Flt (Float.of_int (Prng.int g 24 - 12) /. 2.0))
    | _ -> Value.Atom (Atom.Int (Prng.int g 60 - 30))
  in
  { expr = Expr.Lit (Value.VSet (List.init n (fun _ -> item ())), ty); ty }

let int_fields ty =
  match ty with
  | Types.Tuple fs ->
    List.filter_map (fun (f, t) -> if t = Types.Atomic Atom.TInt then Some f else None) fs
  | _ -> []

(* Candidate constructors, mirroring the MIL generator scheme: each
   returns Some well-typed wrapper of pool entries, or None when no
   entry satisfies its precondition. *)
let moa_generators : (string * (Prng.t -> mentry list -> mentry option)) array =
  [|
    ( "lit_atom",
      fun g _ ->
        let ty = Prng.choose g [| Atom.TInt; Atom.TFlt; Atom.TStr; Atom.TBool |] in
        Some { expr = moa_lit g ty; ty = Types.Atomic ty } );
    ( "lit_set",
      fun g _ ->
        let n = Prng.int g 6 in
        match Prng.int g 3 with
        | 0 -> Some (moa_lit_set g Atom.TInt n)
        | 1 -> Some (moa_lit_set g Atom.TFlt n)
        | _ ->
          let ws = List.init n (fun _ -> Prng.choose g words) in
          Some { expr = Expr.lit_str_set ws; ty = Types.Set (Types.Atomic Atom.TStr) } );
    ( "aggr",
      fun g pool ->
        Option.map
          (fun e ->
            let elem = Option.get (set_elem e.ty) in
            match Prng.int g 5 with
            | 0 -> { expr = Expr.Aggr (Bat.Count, e.expr); ty = Types.Atomic Atom.TInt }
            | 1 -> { expr = Expr.Aggr (Bat.Avg, e.expr); ty = Types.Atomic Atom.TFlt }
            | 2 -> { expr = Expr.Aggr (Bat.Sum, e.expr); ty = elem }
            | 3 -> { expr = Expr.Aggr (Bat.Min, e.expr); ty = elem }
            | _ -> { expr = Expr.Aggr (Bat.Max, e.expr); ty = elem })
          (pick g pool num_set) );
    ( "count_any",
      fun g pool ->
        Option.map
          (fun e -> { expr = Expr.Aggr (Bat.Count, e.expr); ty = Types.Atomic Atom.TInt })
          (pick g pool atom_set) );
    ( "binop",
      fun g pool ->
        Option.bind
          (pick g pool (fun e -> is_num_ty e.ty))
          (fun a ->
            Option.map
              (fun b ->
                let op = Prng.choose g Bat.[| Add; Sub; MinOp; MaxOp |] in
                let ty =
                  if a.ty = Types.Atomic Atom.TInt && b.ty = Types.Atomic Atom.TInt then
                    Types.Atomic Atom.TInt
                  else Types.Atomic Atom.TFlt
                in
                { expr = Expr.Binop (op, a.expr, b.expr); ty })
              (pick g pool (fun e -> is_num_ty e.ty))) );
    ( "cmp",
      fun g pool ->
        Option.bind
          (pick g pool (fun e -> is_atomic_ty e.ty))
          (fun a ->
            Option.map
              (fun b ->
                let c = Prng.choose g Bat.[| Eq; Ne; Lt; Le; Gt; Ge |] in
                { expr = Expr.Binop (Bat.CmpOp c, a.expr, b.expr);
                  ty = Types.Atomic Atom.TBool })
              (pick g pool (fun e ->
                   e.ty = a.ty || (is_num_ty e.ty && is_num_ty a.ty)))) );
    ( "boolop",
      fun g pool ->
        Option.bind
          (pick g pool (fun e -> e.ty = Types.Atomic Atom.TBool))
          (fun a ->
            Option.map
              (fun b ->
                let op = if Prng.bool g then Bat.And else Bat.Or in
                { expr = Expr.Binop (op, a.expr, b.expr); ty = a.ty })
              (pick g pool (fun e -> e.ty = Types.Atomic Atom.TBool))) );
    ( "unop",
      fun g pool ->
        Option.map
          (fun e ->
            if e.ty = Types.Atomic Atom.TBool then
              { expr = Expr.Unop (Bat.Not, e.expr); ty = e.ty }
            else
              match Prng.int g 3 with
              | 0 -> { expr = Expr.Unop (Bat.Neg, e.expr); ty = e.ty }
              | 1 -> { expr = Expr.Unop (Bat.Abs, e.expr); ty = e.ty }
              | _ -> { expr = Expr.Unop (Bat.ToFlt, e.expr); ty = Types.Atomic Atom.TFlt })
          (pick g pool (fun e -> is_num_ty e.ty || e.ty = Types.Atomic Atom.TBool)) );
    ( "exists",
      fun g pool ->
        Option.map
          (fun e -> { expr = Expr.Exists e.expr; ty = Types.Atomic Atom.TBool })
          (pick g pool (fun e -> set_elem e.ty <> None)) );
    ( "member",
      fun g pool ->
        Option.map
          (fun e ->
            let base =
              match set_elem e.ty with Some (Types.Atomic b) -> b | _ -> assert false
            in
            { expr = Expr.Member (moa_lit g base, e.expr); ty = Types.Atomic Atom.TBool })
          (pick g pool (fun e ->
               match set_elem e.ty with
               | Some (Types.Atomic (Atom.TInt | Atom.TFlt | Atom.TStr | Atom.TBool)) -> true
               | _ -> false)) );
    ( "setop",
      fun g pool ->
        Option.bind (pick g pool atom_set) (fun a ->
            if Prng.int g 4 = 0 then
              (* the distinct idiom: union(x, x) *)
              Some { expr = Expr.Union (a.expr, a.expr); ty = a.ty }
            else
              Option.map
                (fun b ->
                  let node =
                    match Prng.int g 3 with
                    | 0 -> Expr.Union (a.expr, b.expr)
                    | 1 -> Expr.Diff (a.expr, b.expr)
                    | _ -> Expr.Inter (a.expr, b.expr)
                  in
                  { expr = node; ty = a.ty })
                (pick g pool (fun e -> Types.equal e.ty a.ty))) );
    ( "select",
      fun g pool ->
        Option.map
          (fun e ->
            let elem = Option.get (set_elem e.ty) in
            let v = fresh_var () in
            let cmp () = Bat.CmpOp (Prng.choose g Bat.[| Eq; Ne; Lt; Le; Gt; Ge |]) in
            let pred =
              if elem = Types.Atomic Atom.TInt then
                Expr.Binop (cmp (), Expr.Var v, Expr.lit_int (Prng.int g 40 - 20))
              else
                match int_fields elem with
                | f :: _ ->
                  Expr.Binop
                    (cmp (), Expr.Field (Expr.Var v, f), Expr.lit_int (Prng.int g 40 - 20))
                | [] -> Expr.lit_bool (Prng.bool g)
            in
            { expr = Expr.Select { v; pred; src = e.expr }; ty = e.ty })
          (pick g pool (fun e -> set_elem e.ty <> None)) );
    ( "map",
      fun g pool ->
        Option.map
          (fun e ->
            let elem = Option.get (set_elem e.ty) in
            let v = fresh_var () in
            match elem with
            | Types.Tuple ((f0, t0) :: _ as fs) ->
              let f, t = List.nth fs (Prng.int g (List.length fs)) in
              let f, t = if Prng.bool g then (f, t) else (f0, t0) in
              { expr = Expr.Map { v; body = Expr.Field (Expr.Var v, f); src = e.expr };
                ty = Types.Set t }
            | Types.Atomic (Atom.TInt | Atom.TFlt) ->
              { expr =
                  Expr.Map
                    { v;
                      body = Expr.Binop (Bat.Add, Expr.Var v, moa_lit g Atom.TInt);
                      src = e.expr };
                ty = Types.Set (if elem = Types.Atomic Atom.TInt then elem
                                else Types.Atomic Atom.TFlt) }
            | _ -> { expr = Expr.Map { v; body = Expr.Var v; src = e.expr }; ty = e.ty })
          (pick g pool (fun e -> set_elem e.ty <> None)) );
    ( "flat",
      fun g pool ->
        Option.map
          (fun e ->
            let inner = Option.get (set_elem e.ty) in
            { expr = Expr.Flat e.expr; ty = inner })
          (pick g pool (fun e ->
               match set_elem e.ty with Some (Types.Set _) -> true | _ -> false)) );
    ( "join",
      fun g pool ->
        (* either operand may be a fresh set literal, and numeric
           element types may differ (int = flt keys) *)
        let operand want =
          let literal =
            match want with None -> true | Some t -> is_num_ty t
          in
          if literal && Prng.int g 3 = 0 then
            Some (moa_lit_set g (Prng.choose g [| Atom.TInt; Atom.TFlt |]) (Prng.int g 6))
          else
            pick g pool (fun e ->
                match (want, set_elem e.ty) with
                | None, Some t -> is_atomic_ty t
                | Some ta, Some tb ->
                  is_atomic_ty tb && (Types.equal ta tb || (is_num_ty ta && is_num_ty tb))
                | _, None -> false)
        in
        Option.bind (operand None) (fun a ->
            let ea = Option.get (set_elem a.ty) in
            Option.map
              (fun b ->
                let eb = Option.get (set_elem b.ty) in
                let v1 = fresh_var () and v2 = fresh_var () in
                let c = Prng.choose g Bat.[| Eq; Eq; Ne; Lt; Le; Gt; Ge |] in
                (* a computed key on one side, in either orientation *)
                let key v t =
                  if is_num_ty t && Prng.int g 3 = 0 then
                    Expr.Binop (Bat.Add, Expr.Var v, Expr.lit_int (Prng.int g 5 - 2))
                  else Expr.Var v
                in
                let pred =
                  if Prng.bool g then Expr.Binop (Bat.CmpOp c, key v1 ea, key v2 eb)
                  else Expr.Binop (Bat.CmpOp c, key v2 eb, key v1 ea)
                in
                let node =
                  if Prng.bool g then
                    Expr.Join
                      { v1; v2; pred; left = a.expr; right = b.expr; l1 = "l"; l2 = "r" }
                  else Expr.Semijoin { v1; v2; pred; left = a.expr; right = b.expr }
                in
                match node with
                | Expr.Join _ ->
                  { expr = node; ty = Types.Set (Types.Tuple [ ("l", ea); ("r", eb) ]) }
                | _ -> { expr = node; ty = a.ty })
              (operand (Some ea))) );
    ( "tolist",
      fun g pool ->
        Option.map
          (fun e ->
            let elem = Option.get (set_elem e.ty) in
            { expr = Expr.ExtOp { op = "tolist"; args = [ e.expr; Expr.lit_str "" ] };
              ty = Types.Xt ("LIST", [ elem ]) })
          (pick g pool num_set) );
    ( "take",
      fun g pool ->
        Option.map
          (fun e ->
            { expr = Expr.ExtOp { op = "take"; args = [ e.expr; Expr.lit_int (Prng.int g 6) ] };
              ty = e.ty })
          (pick g pool (fun e -> list_elem e.ty <> None)) );
    ( "toset",
      fun g pool ->
        Option.map
          (fun e ->
            let elem = Option.get (list_elem e.ty) in
            { expr = Expr.ExtOp { op = "toset"; args = [ e.expr ] }; ty = Types.Set elem })
          (pick g pool (fun e -> list_elem e.ty <> None)) );
  |]

let moa_generate g pool =
  let rec attempt k =
    if k = 0 then
      (* always possible: the corpus extent is in the pool *)
      match pick g pool (fun e -> set_elem e.ty <> None) with
      | Some e -> { expr = Expr.Exists e.expr; ty = Types.Atomic Atom.TBool }
      | None -> List.nth pool (Prng.int g (List.length pool))
    else
      let _, gen = Prng.choose g moa_generators in
      match gen g pool with Some m -> m | None -> attempt (k - 1)
  in
  attempt 8

let moa_failf expr fmt =
  Printf.ksprintf
    (fun msg -> Alcotest.failf "%s\nexpression:\n%s" msg (Expr.to_string expr))
    fmt

let rec has_nest (e : Expr.t) =
  match e with
  | Expr.Nest _ | Expr.Unnest _ -> true
  | Expr.Extent _ | Expr.Lit _ | Expr.Var _ -> false
  | Expr.Field (e, _) | Expr.Aggr (_, e) | Expr.Unop (_, e) | Expr.Exists e | Expr.Flat e ->
    has_nest e
  | Expr.Tuple fs -> List.exists (fun (_, e) -> has_nest e) fs
  | Expr.Map { body; src; _ } | Expr.Select { pred = body; src; _ } ->
    has_nest body || has_nest src
  | Expr.Join { pred; left; right; _ } | Expr.Semijoin { pred; left; right; _ } ->
    has_nest pred || has_nest left || has_nest right
  | Expr.Binop (_, a, b)
  | Expr.Member (a, b)
  | Expr.Union (a, b)
  | Expr.Diff (a, b)
  | Expr.Inter (a, b) ->
    has_nest a || has_nest b
  | Expr.ExtOp { args; _ } -> List.exists has_nest args

let rec value_atoms = function
  | Value.Atom _ -> 1
  | Value.Tup fs -> List.fold_left (fun n (_, v) -> n + value_atoms v) 0 fs
  | Value.VSet vs | Value.Xv { items = vs; _ } ->
    List.fold_left (fun n v -> n + value_atoms v) 0 vs

(* The four properties; returns the naive result for pool-size gating. *)
let moa_check st tenv menv { expr; ty } =
  (match Typecheck.infer tenv expr with
  | Error d ->
    moa_failf expr "generator produced an ill-typed expression: %s"
      (Typecheck.diag_to_string d)
  | Ok t ->
    if not (Types.equal t ty) then
      moa_failf expr "generator claimed type %s, typechecker inferred %s"
        (Types.to_string ty) (Types.to_string t));
  let prop, diags = Moacheck.infer menv expr in
  (match Moaprop.errors diags with
  | [] -> ()
  | ds ->
    moa_failf expr "analyzer rejected a well-typed expression: %s"
      (String.concat "; " (List.map Moaprop.diag_to_string ds)));
  let v = Naive.eval st expr in
  (match Moaprop.value_ok prop v with
  | Ok () -> ()
  | Error msg ->
    moa_failf expr "naive result escaped the Moa envelope %s: %s" (Moaprop.to_string prop)
      msg);
  (match Flatten.compile st expr with
  | exception Flatten.Unsupported msg -> moa_failf expr "expression does not flatten: %s" msg
  | exception Flatten.Ill_formed msg -> moa_failf expr "compile rejected: %s" msg
  | shape -> (
    match Moacheck.validate st expr (Storage.analyze st shape) shape with
    | Ok (_ : int) -> ()
    | Error ds ->
      moa_failf expr "translation validation failed: %s"
        (String.concat "; " (List.map Moaprop.diag_to_string ds))));
  (match Eval.query st expr with
  | Error msg -> moa_failf expr "flattened evaluation failed: %s" msg
  | Ok r ->
    if not (Value.equal v r.Eval.value) then
      moa_failf expr "evaluators disagree\n  naive:     %s\n  flattened: %s" (Value.to_string v)
        (Value.to_string r.Eval.value));
  v

let test_moa_fuzz () =
  let st = Corpus.storage () in
  let tenv = Storage.typecheck_env st in
  let menv = Moacheck.env_of_storage st in
  let g = Prng.create 20260807 in
  let canned =
    List.filter_map
      (fun src ->
        match Parser.parse_expr src with
        | Error _ -> None
        | Ok e ->
          if has_nest e || Expr.size e > 25 then None
          else
            Option.map
              (fun ty -> { expr = e; ty })
              (Result.to_option (Typecheck.infer tenv e)))
      Corpus.queries
  in
  let pool = ref ({ expr = Expr.Extent "R"; ty = Corpus.schema } :: canned) in
  let pooled = ref 0 in
  for _ = 1 to moa_to_generate do
    let me = moa_generate g !pool in
    let v = moa_check st tenv menv me in
    if Expr.size me.expr <= moa_max_size && value_atoms v <= 400 then begin
      pool := me :: !pool;
      incr pooled
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pool kept growing (%d of %d expressions pooled)" !pooled moa_to_generate)
    true
    (!pooled > moa_to_generate / 2)

let test_moa_deterministic () =
  (* binder names come from a global counter, so compare operator/size
     shapes rather than printed expressions *)
  let sequence () =
    let g = Prng.create 42 in
    let pool = ref [ { expr = Expr.Extent "R"; ty = Corpus.schema } ] in
    List.init 60 (fun _ ->
        let me = moa_generate g !pool in
        if Expr.size me.expr <= moa_max_size then pool := me :: !pool;
        Printf.sprintf "%s/%d:%s" (Expr.op_name me.expr) (Expr.size me.expr)
          (Types.to_string me.ty))
  in
  Alcotest.(check (list string)) "same seed, same expressions" (sequence ()) (sequence ())

let () =
  Alcotest.run "fuzz"
    [
      ( "mil-pipeline",
        [
          Alcotest.test_case "500 random plans: envelope, rewrite, trace" `Slow test_fuzz;
          Alcotest.test_case "generator is deterministic" `Quick test_deterministic;
        ] );
      ( "moa-pipeline",
        [
          Alcotest.test_case "500 random queries: envelope, flattening validated" `Slow
            test_moa_fuzz;
          Alcotest.test_case "generator is deterministic" `Quick test_moa_deterministic;
        ] );
    ]
