(* Structural extensibility, end to end (§2: "new structures can be
   added to the system ... A more interesting use for structural
   extensibility is however the definition of domain specific
   structures").

   This example registers a user-defined VEC structure — a raw feature
   vector — through the public Extension registry and builds a
   Viper-style query-by-example image search on top of it: images are
   represented by their RGB-histogram vectors and ranked by Euclidean
   distance to the query image's vector.  The distance operator
   [vdist] is compiled entirely from *generic* kernel operators
   (joins, element-wise calculations, grouped sums): no new physical
   operator is needed, exactly the paper's point about the binary
   relational model as a compilation target.

   Run with:  dune exec examples/custom_structure.exe *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Mil = Mirror_bat.Mil
module Column = Mirror_bat.Column
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Expr = Mirror_core.Expr
module Shape = Mirror_core.Shape
module Extension = Mirror_core.Extension
module Mirror = Mirror_core.Mirror
module Naive = Mirror_core.Naive
module Eval = Mirror_core.Eval
module Prng = Mirror_util.Prng
module Synth = Mirror_mm.Synth
module Segment = Mirror_mm.Segment
module Histogram = Mirror_mm.Histogram

let ok = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 1

(* {1 The VEC extension} *)

let vec_value arr = Value.Xv { ext = "VEC"; meta = []; items = Array.to_list (Array.map Value.flt arr) }

let vec_floats = function
  | Value.Xv { ext = "VEC"; items; _ } ->
    Array.of_list (List.map (fun v -> Atom.as_float (Value.as_atom v)) items)
  | _ -> failwith "not a VEC"

let parse_vector_literal s =
  Mirror_util.Stringx.split_on (fun c -> c = ' ' || c = ',') s
  |> List.map float_of_string
  |> Array.of_list

let vector_literal arr =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") arr))

module VEC = struct
  let name = "VEC"
  let arity = 0
  let check_type = function [] -> Ok () | _ -> Error "VEC takes no type parameters"
  let ops = [ "vdist"; "vnorm" ]

  let op_type ~op ~args =
    match (op, args) with
    | "vdist", [ Types.Xt ("VEC", _); Types.Atomic Atom.TStr ] -> Ok (Types.Atomic Atom.TFlt)
    | "vnorm", [ Types.Xt ("VEC", _) ] -> Ok (Types.Atomic Atom.TFlt)
    | _ -> Error (op ^ ": bad operands")

  let op_eval _env ~op ~args =
    match (op, args) with
    | "vdist", [ self; Value.Atom (Atom.Str lit) ] ->
      let v = vec_floats self and q = parse_vector_literal lit in
      let acc = ref 0.0 in
      Array.iteri
        (fun i qi ->
          let xi = if i < Array.length v then v.(i) else 0.0 in
          acc := !acc +. ((xi -. qi) *. (xi -. qi)))
        q;
      (* dimensions beyond the query contribute their square *)
      Array.iteri (fun i xi -> if i >= Array.length q then acc := !acc +. (xi *. xi)) v;
      Value.flt !acc
    | "vnorm", [ self ] ->
      let v = vec_floats self in
      Value.flt (sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v))
    | _ -> failwith (op ^ ": bad operands")

  (* flattened representation: entry -> ctx, entry -> dim, entry -> value *)
  let bundle bats = Shape.Xstruct { ext = name; meta = []; bats; subs = [] }

  let op_flatten env ~op ~arg_tys:_ ~raw ~args =
    match (op, args) with
    | "vdist", [ Shape.Xstruct { ext = "VEC"; bats = [ link; dim; value ]; _ }; _ ] -> (
      match raw with
      | [ _; Expr.Lit (Value.Atom (Atom.Str lit), _) ] ->
        let q = parse_vector_literal lit in
        (* the query vector as a literal BAT dim -> q_d *)
        let qbat =
          Mil.Lit
            {
              hty = Atom.TInt;
              tty = Atom.TFlt;
              pairs = Array.to_list (Array.mapi (fun i x -> (Atom.Int i, Atom.Flt x)) q);
            }
        in
        (* (x_d - q_d)^2 per entry, missing query dims default to 0 *)
        let qs = Mil.LeftOuterJoin (dim, qbat, Atom.Flt 0.0) in
        let diff = Mil.Calc2 (Bat.Sub, value, qs) in
        let sq = Mil.Calc2 (Bat.Mul, diff, diff) in
        let per_ctx = Mil.GroupAggr (Bat.Sum, Mil.Join (Mil.Reverse link, sq)) in
        (* query dims with no stored entry contribute q_d^2: constant
           per context = |q|^2 - sum over stored dims of q_d^2 ... for
           simplicity we require stored vectors to cover the query's
           dimensionality, which [materialize] guarantees for
           equal-width vectors (the common case for one feature space). *)
        Shape.Atomic (Mil.LeftOuterJoin (env.Extension.dom, per_ctx, Atom.Flt 0.0))
      | _ -> failwith "vdist: query vector must be a string literal")
    | "vnorm", [ Shape.Xstruct { ext = "VEC"; bats = [ link; _dim; value ]; _ } ] ->
      let sq = Mil.Calc2 (Bat.Mul, value, value) in
      let per_ctx = Mil.GroupAggr (Bat.Sum, Mil.Join (Mil.Reverse link, sq)) in
      Shape.Atomic (Mil.Calc1 (Bat.Sqrt, Mil.LeftOuterJoin (env.Extension.dom, per_ctx, Atom.Flt 0.0)))
    | _ -> failwith (op ^ ": bad flattened operands")

  let materialize env ~recurse:_ ~path ~ty_args:_ ~dom =
    let total = List.fold_left (fun acc (_, v) -> acc + Array.length (vec_floats v)) 0 dom in
    let base = env.Extension.fresh_store total in
    let next = ref base in
    let hb = Column.Builder.create Atom.TOid in
    let cb = Column.Builder.create Atom.TOid in
    let db = Column.Builder.create Atom.TInt in
    let vb = Column.Builder.create Atom.TFlt in
    List.iter
      (fun (ctx, v) ->
        Array.iteri
          (fun d x ->
            Column.Builder.add_oid hb !next;
            incr next;
            Column.Builder.add_oid cb ctx;
            Column.Builder.add_int db d;
            Column.Builder.add_float vb x)
          (vec_floats v))
      dom;
    let heads = Column.Builder.finish hb in
    let cat = env.Extension.catalog in
    Mirror_bat.Catalog.put cat (path ^ "#in") (Bat.make heads (Column.Builder.finish cb));
    Mirror_bat.Catalog.put cat (path ^ "#dim") (Bat.make heads (Column.Builder.finish db));
    Mirror_bat.Catalog.put cat (path ^ "#val") (Bat.make heads (Column.Builder.finish vb));
    bundle [ Mil.Get (path ^ "#in"); Mil.Get (path ^ "#dim"); Mil.Get (path ^ "#val") ]

  let filter_flat ~recurse:_ ~meta:_ ~bats ~subs:_ ~survivors =
    match bats with
    | [ link; dim; value ] ->
      let link' = Mil.Reverse (Mil.Semijoin (Mil.Reverse link, survivors)) in
      bundle [ link'; Mil.Semijoin (dim, link'); Mil.Semijoin (value, link') ]
    | _ -> failwith "VEC: malformed bundle"

  let rebase_flat env ~recurse:_ ~meta:_ ~bats ~subs:_ ~m =
    match bats with
    | [ link; dim; value ] ->
      let j = Mil.Join (m, Mil.Reverse link) in
      let base = env.Extension.fresh 0 in
      let link' = Mil.NumberHead (j, base) in
      let m2 = Mil.NumberTail (j, base) in
      bundle [ link'; Mil.Join (m2, dim); Mil.Join (m2, value) ]
    | _ -> failwith "VEC: malformed bundle"

  let reify ~members ~atom ~recurse:_ ~meta:_ ~bats ~subs:_ ~ctx =
    match bats with
    | [ link; dim; value ] ->
      members link ctx
      |> List.map (fun o -> (Atom.as_int (atom dim o), Atom.as_float (atom value o)))
      |> List.sort compare
      |> List.map snd
      |> Array.of_list
      |> vec_value
    | _ -> failwith "VEC: malformed bundle"

  let foreign_ops = []

  (* Sound defaults for the Moa-level analyzer: claim nothing about
     operator results or the flattened bundle. *)
  let op_envelope ~op:_ ~args:_ ~ty ~top = top ty

  let prop_flat ~ctx:_ ~prop:_ ~meta:_ ~nbats ~nsubs =
    ( List.init nbats (fun _ -> None),
      List.init nsubs (fun _ -> (Mirror_core.Moaprop.Unknown, Mirror_bat.Milprop.any_card)) )

  let bind_value ~path:_ ~recurse:_ ~ty_args:_ v = v
end

(* {1 The query-by-example application} *)

let whole img = { Segment.x = 0; y = 0; w = img.Mirror_mm.Image.width; h = img.Mirror_mm.Image.height }

let () =
  Mirror_core.Bootstrap.ensure ();
  Extension.register (module VEC : Extension.S);
  Printf.printf "registered structures: %s\n\n"
    (String.concat ", " (Extension.registered ()));

  (* a small corpus with ground-truth classes *)
  let g = Prng.create 31 in
  let scenes = Synth.corpus g ~n:18 ~width:48 ~height:48 ~annotated_fraction:1.0 () in

  let m = Mirror.create () in
  ok
    (Mirror.define m ~name:"Gallery"
       (Types.Set
          (Types.Tuple
             [
               ("source", Types.Atomic Atom.TStr);
               ("class", Types.Atomic Atom.TStr);
               ("feat", Types.Xt ("VEC", []));
             ])));
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (s : Synth.scene) ->
           let cls = Synth.class_name (List.hd s.Synth.truth).Synth.cls in
           Value.Tup
             [
               ("source", Value.str (Printf.sprintf "img://%d" i));
               ("class", Value.str cls);
               ("feat", vec_value (Histogram.rgb s.Synth.image (whole s.Synth.image)));
             ])
         scenes)
  in
  ignore (ok (Mirror.load m ~name:"Gallery" rows));

  (* query by example: a fresh image of a known class *)
  let example = Synth.scene (Prng.create 99) ~regions:1 () in
  let example_class = Synth.class_name (List.hd example.Synth.truth).Synth.cls in
  let example_palette = Synth.palette_name (List.hd example.Synth.truth).Synth.palette in
  let qvec = Histogram.rgb example.Synth.image (whole example.Synth.image) in
  Printf.printf "query image: class=%s palette=%s (not in the gallery)\n" example_class
    example_palette;

  (* the ranking is ordinary Moa: a user-defined operator composes with
     tuple construction, sorting and top-k like any built-in *)
  let ranked =
    Expr.ExtOp
      {
        op = "take";
        args =
          [
            Expr.ExtOp
              {
                op = "tolist";
                args =
                  [
                    Expr.Map
                      {
                        v = "x";
                        body =
                          Expr.Tuple
                            [
                              ("source", Expr.Field (Expr.Var "x", "source"));
                              ("class", Expr.Field (Expr.Var "x", "class"));
                              ( "d",
                                Expr.ExtOp
                                  {
                                    op = "vdist";
                                    args =
                                      [
                                        Expr.Field (Expr.Var "x", "feat");
                                        Expr.lit_str (vector_literal qvec);
                                      ];
                                  } );
                            ];
                        src = Expr.Extent "Gallery";
                      };
                    Expr.lit_str "d";
                  ];
              };
            Expr.lit_int 5;
          ];
      }
  in
  (* both evaluators agree on the user-defined structure *)
  let naive = Naive.eval (Mirror.storage m) ranked in
  let flat = ok (Eval.query_value (Mirror.storage m) ranked) in
  Printf.printf "evaluators agree: %b\n\n" (Value.equal naive flat);

  print_endline "nearest gallery images by RGB-histogram distance:";
  (match flat with
  | Value.Xv { ext = "LIST"; items; _ } ->
    List.iteri
      (fun i item ->
        Printf.printf "  %d. %-10s class=%-9s d=%.4f\n" (i + 1)
          (Atom.as_string (Value.as_atom (Value.field_exn item "source")))
          (Atom.as_string (Value.as_atom (Value.field_exn item "class")))
          (Atom.as_float (Value.as_atom (Value.field_exn item "d"))))
      items
  | v -> print_endline (Value.to_string v));

  (* similarity also composes with relational predicates *)
  let v =
    ok
      (Mirror.run_query m
         (Printf.sprintf
            "count(select[vdist(THIS.feat, '%s') < 0.05](Gallery))"
            (vector_literal qvec)))
  in
  Printf.printf "\ngallery images within distance 0.05: %s\n" (Value.to_string v)
