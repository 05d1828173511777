module Atom = Mirror_bat.Atom
module P = Mirror_bat.Milprop

(* ------------------------------------------------------------------ *)
(* Diagnostics (shared by Typecheck and Moacheck)                     *)
(* ------------------------------------------------------------------ *)

type severity = Mirror_bat.Milcheck.severity = Error | Warning | Hint

type diag = Mirror_bat.Milcheck.diag = {
  severity : severity;
  path : string;
  op : string;
  message : string;
}

(* ------------------------------------------------------------------ *)
(* The abstract domain                                                 *)
(* ------------------------------------------------------------------ *)

type t =
  | Unknown
  | Atomic of { ty : Atom.ty; lo : float option; hi : float option; bconst : bool option }
  | Tuple of (string * t) list
  | Set of { card : P.card; elem : t }
  | Xprop of { ext : string; card : P.card; elem : t; ordered : bool }

let atomic ty = Atomic { ty; lo = None; hi = None; bconst = None }

let atomic_range ty lo hi = Atomic { ty; lo; hi; bconst = None }

let bool_const b = Atomic { ty = Atom.TBool; lo = None; hi = None; bconst = Some b }

let card_of = function
  | Set { card; _ } | Xprop { card; _ } -> Some card
  | Unknown | Atomic _ | Tuple _ -> None

(* ------------------------------------------------------------------ *)
(* Cardinality helpers                                                 *)
(* ------------------------------------------------------------------ *)

let card_contains (c : P.card) n =
  n >= c.P.lo && (match c.P.hi with None -> true | Some h -> n <= h)

let card_join (a : P.card) (b : P.card) : P.card =
  {
    P.lo = min a.P.lo b.P.lo;
    hi = (match (a.P.hi, b.P.hi) with Some x, Some y -> Some (max x y) | _ -> None);
  }

(* Lower-bound-preserving product (Milprop.card_mul keeps [lo = 0]; at
   the logical level we also know a cross product of non-empty sets is
   non-empty).  Saturates to "unknown" on overflow, which only loses
   precision. *)
let card_prod (a : P.card) (b : P.card) : P.card =
  let mul x y =
    if x = 0 || y = 0 then Some 0
    else
      let p = x * y in
      if p / x <> y || p < 0 then None else Some p
  in
  let lo = match mul a.P.lo b.P.lo with Some p -> p | None -> 0 in
  let hi = match (a.P.hi, b.P.hi) with Some x, Some y -> mul x y | _ -> None in
  { P.lo; hi }

(* Range of a sum of [card] values each within [lo, hi]: each extreme
   is attained at the count that stretches it furthest (maximum count
   for positive contributions, minimum count otherwise), which also
   covers the empty sum 0. *)
let sum_range (c : P.card) lo hi =
  let slo =
    match lo with
    | None -> None
    | Some t ->
      if t >= 0.0 then Some (float_of_int c.P.lo *. t)
      else Option.map (fun h -> float_of_int h *. t) c.P.hi
  and shi =
    match hi with
    | None -> None
    | Some t ->
      if t <= 0.0 then Some (float_of_int c.P.lo *. t)
      else Option.map (fun h -> float_of_int h *. t) c.P.hi
  in
  (slo, shi)

(* ------------------------------------------------------------------ *)
(* Lattice join                                                        *)
(* ------------------------------------------------------------------ *)

let opt_join f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let rec join a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Atomic x, Atomic y when x.ty = y.ty ->
    Atomic
      {
        ty = x.ty;
        lo = opt_join min x.lo y.lo;
        hi = opt_join max x.hi y.hi;
        bconst =
          (match (x.bconst, y.bconst) with
          | Some p, Some q when p = q -> Some p
          | _ -> None);
      }
  | Tuple xs, Tuple ys
    when List.length xs = List.length ys
         && List.for_all2 (fun (lx, _) (ly, _) -> String.equal lx ly) xs ys ->
    Tuple (List.map2 (fun (l, x) (_, y) -> (l, join x y)) xs ys)
  | Set x, Set y -> Set { card = card_join x.card y.card; elem = join x.elem y.elem }
  | Xprop x, Xprop y when String.equal x.ext y.ext ->
    Xprop
      {
        ext = x.ext;
        card = card_join x.card y.card;
        elem = join x.elem y.elem;
        ordered = x.ordered && y.ordered;
      }
  | _ -> Unknown

let joins = function [] -> Unknown | p :: ps -> List.fold_left join p ps

(* ------------------------------------------------------------------ *)
(* Exact abstraction of a concrete value                               *)
(* ------------------------------------------------------------------ *)

let rec of_value = function
  | Value.Atom (Atom.Int i) ->
    let f = float_of_int i in
    Atomic { ty = Atom.TInt; lo = Some f; hi = Some f; bconst = None }
  | Value.Atom (Atom.Flt f) -> Atomic { ty = Atom.TFlt; lo = Some f; hi = Some f; bconst = None }
  | Value.Atom (Atom.Bool b) -> bool_const b
  | Value.Atom a -> atomic (Atom.type_of a)
  | Value.Tup fields -> Tuple (List.map (fun (l, v) -> (l, of_value v)) fields)
  | Value.VSet items ->
    Set { card = P.exactly (List.length items); elem = joins (List.map of_value items) }
  | Value.Xv { ext; items; _ } ->
    Xprop
      {
        ext;
        card = P.exactly (List.length items);
        elem = joins (List.map of_value items);
        ordered = String.equal ext "LIST";
      }

(* ------------------------------------------------------------------ *)
(* Membership: is a concrete value inside the envelope?                *)
(* ------------------------------------------------------------------ *)

(* Relative tolerance for float range checks: inference rounds interval
   endpoints with ordinary float arithmetic, so a concrete result can
   legitimately sit a few ulps outside a stated bound. *)
let in_range lo hi x =
  let tol v = 1e-9 *. (1.0 +. Float.abs v) in
  (match lo with None -> true | Some l -> x >= l -. tol l)
  && match hi with None -> true | Some h -> x <= h +. tol h

let rec value_ok prop v =
  let fail fmt = Printf.ksprintf (fun s -> Stdlib.Error s) fmt in
  match (prop, v) with
  | Unknown, _ -> Ok ()
  | Atomic p, Value.Atom a ->
    if Atom.type_of a <> p.ty then
      fail "atom %s is not of type %s" (Atom.to_string a) (Atom.ty_name p.ty)
    else begin
      match a with
      | Atom.Int i when not (in_range p.lo p.hi (float_of_int i)) ->
        fail "int %d outside inferred range" i
      | Atom.Flt f when not (in_range p.lo p.hi f) -> fail "flt %g outside inferred range" f
      | Atom.Bool b when (match p.bconst with Some c -> c <> b | None -> false) ->
        fail "bool %b contradicts inferred constant" b
      | _ -> Ok ()
    end
  | Tuple fps, Value.Tup fvs ->
    if
      List.length fps <> List.length fvs
      || not (List.for_all2 (fun (lp, _) (lv, _) -> String.equal lp lv) fps fvs)
    then fail "tuple labels do not match the envelope"
    else
      List.fold_left2
        (fun acc (l, p) (_, x) ->
          match acc with
          | Stdlib.Error _ -> acc
          | Ok () -> (
            match value_ok p x with Ok () -> Ok () | Stdlib.Error e -> fail "field %s: %s" l e))
        (Ok ()) fps fvs
  | Set p, Value.VSet items ->
    if not (card_contains p.card (List.length items)) then
      fail "set of %d elements outside cardinality %d..%s" (List.length items) p.card.P.lo
        (match p.card.P.hi with None -> "*" | Some h -> string_of_int h)
    else items_ok p.elem items
  | Xprop p, Value.Xv { ext; items; _ } ->
    if not (String.equal p.ext ext) then fail "%s value where %s expected" ext p.ext
    else if not (card_contains p.card (List.length items)) then
      fail "%s of %d elements outside cardinality %d..%s" ext (List.length items) p.card.P.lo
        (match p.card.P.hi with None -> "*" | Some h -> string_of_int h)
    else items_ok p.elem items
  | (Atomic _ | Tuple _ | Set _ | Xprop _), _ ->
    fail "value %s does not match the envelope's structure" (Value.to_string v)

and items_ok elem items =
  List.fold_left
    (fun acc x ->
      match acc with
      | Stdlib.Error _ -> acc
      | Ok () -> (
        match value_ok elem x with
        | Ok () -> Ok ()
        | Stdlib.Error e -> Stdlib.Error (Printf.sprintf "element %s: %s" (Value.to_string x) e)))
    (Ok ()) items

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_card ppf (c : P.card) =
  match c.P.hi with
  | Some h when h = c.P.lo -> Format.fprintf ppf "%d" h
  | Some h -> Format.fprintf ppf "%d..%d" c.P.lo h
  | None -> Format.fprintf ppf "%d..*" c.P.lo

let pp_bound ppf = function
  | None -> Format.pp_print_string ppf "?"
  | Some f ->
    if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.0f" f
    else Format.fprintf ppf "%g" f

let rec pp ppf = function
  | Unknown -> Format.pp_print_string ppf "?"
  | Atomic { ty; lo; hi; bconst } ->
    Format.fprintf ppf "%s" (Atom.ty_name ty);
    (match bconst with Some b -> Format.fprintf ppf "=%b" b | None -> ());
    if lo <> None || hi <> None then Format.fprintf ppf "[%a..%a]" pp_bound lo pp_bound hi
  | Tuple fields ->
    Format.fprintf ppf "<%a>"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf (l, p) -> Format.fprintf ppf "%s: %a" l pp p))
      fields
  | Set { card; elem } -> Format.fprintf ppf "{|%a| %a}" pp_card card pp elem
  | Xprop { ext; card; elem; ordered } ->
    Format.fprintf ppf "%s%s{|%a| %a}" ext (if ordered then "!" else "") pp_card card pp elem

let to_string p =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1000000;
  Format.fprintf ppf "@[<h>%a@]@?" pp p;
  Buffer.contents buf
