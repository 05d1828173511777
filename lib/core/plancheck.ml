module Milopt = Mirror_bat.Milopt
module Milcheck = Mirror_bat.Milcheck
module Milprop = Mirror_bat.Milprop

let ( let* ) = Result.bind

(* {1 Differential checking} *)

(* Zip two bundles plan-by-plan; [None] when the shape skeletons
   disagree (different tuple fields, extension names or BAT counts). *)
let rec zip_shapes a b =
  match (a, b) with
  | Shape.Atomic p, Shape.Atomic q -> Some [ (p, q) ]
  | Shape.Tuple fs, Shape.Tuple gs when List.map fst fs = List.map fst gs ->
    zip_all (List.map snd fs) (List.map snd gs)
  | Shape.Set { link = l1; elem = e1 }, Shape.Set { link = l2; elem = e2 } ->
    Option.map (fun rest -> (l1, l2) :: rest) (zip_shapes e1 e2)
  | ( Shape.Xstruct { ext = x1; bats = b1; subs = s1; _ },
      Shape.Xstruct { ext = x2; bats = b2; subs = s2; _ } )
    when x1 = x2 && List.length b1 = List.length b2 ->
    Option.bind (zip_all s1 s2) (fun rest ->
        Some (List.combine b1 b2 @ rest))
  | _ -> None

and zip_all xs ys =
  if List.length xs <> List.length ys then None
  else
    List.fold_right
      (fun (x, y) acc ->
        Option.bind acc (fun rest ->
            Option.map (fun ps -> ps @ rest) (zip_shapes x y)))
      (List.combine xs ys) (Some [])

(* Every (before, after) pair must keep a compatible envelope, each
   side read from its own bundle's analysis. *)
let check_pairs ~stage before after pairs =
  let rec go k = function
    | [] -> Ok ()
    | (b, a) :: rest ->
      let pb = Milcheck.prop before b and pa = Milcheck.prop after a in
      if Milprop.compatible pb pa then go (k + 1) rest
      else
        Error
          (Printf.sprintf "%s changed the envelope of bundle plan %d: %s vs %s" stage k
             (Milprop.to_string pb) (Milprop.to_string pa))
  in
  go 0 pairs

(* Assert the two optimisation stages preserve each plan's inferred
   type/shape/cardinality envelope:
   - logical: the bundle compiled from [expr] vs the bundle compiled
     from [Optimize.rewrite expr] (same skeleton, pairwise-compatible
     envelopes);
   - physical: every plan vs its [Milopt.rewrite] image. *)
let differential ?(specialize = true) storage expr =
  let compile label expr =
    match Flatten.compile ~specialize storage expr with
    | exception Flatten.Unsupported msg -> Error (label ^ " compile: " ^ msg)
    | shape -> Ok (shape, Storage.analyze storage shape)
  in
  let physical (shape, a) label =
    let rewritten = Shape.map Milopt.rewrite shape in
    check_pairs ~stage:("Milopt.rewrite (" ^ label ^ ")") a
      (Storage.analyze storage rewritten)
      (List.combine (Shape.plans shape) (Shape.plans rewritten))
  in
  let* ((shape0, a0) as unoptimized) = compile "unoptimized" expr in
  let* ((shape1, a1) as optimized) = compile "optimized" (Optimize.rewrite expr) in
  let* pairs =
    Option.to_result ~none:"Optimize.rewrite changed the bundle's shape skeleton"
      (zip_shapes shape0 shape1)
  in
  let* () = check_pairs ~stage:"Optimize.rewrite" a0 a1 pairs in
  let* () = physical unoptimized "unoptimized" in
  physical optimized "optimized"

(* {1 Whole-query vetting} *)

let diags_to_string ds = String.concat "; " (List.map Milcheck.diag_to_string ds)

let moa_diags_to_string ds = String.concat "; " (List.map Milcheck.diag_to_string ds)

type vetted = { plans : int; envelope_checks : int; verdict : Mirror_bat.Effcheck.verdict }

let vet ?(specialize = true) storage expr =
  let stage name to_string r = Result.map_error (fun e -> name ^ ": " ^ to_string e) r in
  let* _ =
    stage "typecheck" Typecheck.diag_to_string
      (Typecheck.infer (Storage.typecheck_env storage) expr)
  in
  let* _ =
    stage "moacheck" moa_diags_to_string
      (Moacheck.verify (Moacheck.env_of_storage storage) expr)
  in
  let* shape =
    match Flatten.compile ~specialize storage expr with
    | exception Flatten.Unsupported msg -> Error ("flatten: " ^ msg)
    | shape -> Ok shape
  in
  (* one analysis of the bundle serves every stage below *)
  let a = Storage.analyze storage shape in
  let* () = stage "verify" diags_to_string (Milcheck.verify a) in
  let verdict = Mirror_bat.Effcheck.verdict a in
  let* () =
    match Milcheck.errors verdict.hazards with
    | [] -> Ok ()
    | errors -> Error ("effcheck: " ^ diags_to_string errors)
  in
  let* envelope_checks =
    stage "validate" moa_diags_to_string (Moacheck.validate storage expr a shape)
  in
  let* () = differential ~specialize storage expr in
  Ok { plans = List.length a.Milcheck.roots; envelope_checks; verdict }
