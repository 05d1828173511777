(* The text printers of atoms, values and expressions, and the reply
   lines built from them, against the [Format] printers they replaced.

   [Old_print] keeps those printers verbatim (module paths qualified):
   [to_string] boxed every set and tuple in an [hov] box under a
   1,000,000-column margin, printed floats through ["%.12g"] and
   strings through ["%S"], and [Protocol.escape] copied every payload.
   The current writers must produce the same bytes for every value that
   prints in under 1,000,000 characters, which is where the old margin
   started breaking lines; past it they never break a line. *)

module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Value = Mirror_core.Value
module Expr = Mirror_core.Expr
module Parser = Mirror_core.Parser
module Normalize = Mirror_core.Normalize
module Eval = Mirror_core.Eval
module Corpus = Mirror_core.Corpus
module Serve = Mirror_serve.Serve
module Protocol = Mirror_serve.Protocol
module Prng = Mirror_util.Prng

let () = Mirror_core.Bootstrap.ensure ()
let ok = function Ok v -> v | Error e -> Alcotest.fail e

module Old_print = struct
  let atom_pp ppf = function
    | Atom.Int x -> Format.pp_print_int ppf x
    | Atom.Flt x -> Format.fprintf ppf "%.12g" x
    | Atom.Str x -> Format.fprintf ppf "%S" x
    | Atom.Bool x -> Format.pp_print_bool ppf x
    | Atom.Oid x -> Format.fprintf ppf "@%d" x

  let atom_to_string a = Format.asprintf "%a" atom_pp a

  let rec value_pp ppf = function
    | Value.Atom a -> atom_pp ppf a
    | Value.Tup fields ->
      Format.fprintf ppf "@[<hov 1><%a>@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (label, v) -> Format.fprintf ppf "%s: %a" label value_pp v))
        fields
    | Value.VSet items ->
      Format.fprintf ppf "@[<hov 1>{%a}@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") value_pp)
        items
    | Value.Xv { ext; meta; items } ->
      Format.fprintf ppf "@[<hov 1>%s%s[%a]@]" ext
        (if meta = [] then "" else "(" ^ String.concat "," meta ^ ")")
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") value_pp)
        items

  let value_to_string v =
    let buf = Buffer.create 64 in
    let ppf = Format.formatter_of_buffer buf in
    Format.pp_set_margin ppf 1000000;
    Format.pp_set_max_indent ppf 999999;
    Format.fprintf ppf "@[<h>%a@]@?" value_pp v;
    Buffer.contents buf

  let rec expr_pp ppf expr =
    let plist sep f ppf =
      Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf sep) f ppf
    in
    let pp = expr_pp in
    match expr with
    | Expr.Extent name -> Format.pp_print_string ppf name
    | Expr.Lit (v, _) -> value_pp ppf v
    | Expr.Var v -> Format.pp_print_string ppf v
    | Expr.Field (e, f) -> Format.fprintf ppf "%a.%s" pp e f
    | Expr.Tuple fields ->
      Format.fprintf ppf "tuple(%a)"
        (plist ",@ " (fun ppf (l, e) -> Format.fprintf ppf "%s: %a" l pp e))
        fields
    | Expr.Map { v; body; src } ->
      Format.fprintf ppf "@[<hov 2>map[%s: %a](@,%a)@]" v pp body pp src
    | Expr.Select { v; pred; src } ->
      Format.fprintf ppf "@[<hov 2>select[%s: %a](@,%a)@]" v pp pred pp src
    | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
      Format.fprintf ppf "@[<hov 2>join[%s, %s: %a; %s, %s](@,%a,@ %a)@]" v1 v2 pp pred l1 l2
        pp left pp right
    | Expr.Semijoin { v1; v2; pred; left; right } ->
      Format.fprintf ppf "@[<hov 2>semijoin[%s, %s: %a](@,%a,@ %a)@]" v1 v2 pp pred pp left pp
        right
    | Expr.Aggr (a, e) -> Format.fprintf ppf "%s(%a)" (Expr.aggr_name a) pp e
    | Expr.Binop (((Bat.Pow | Bat.MinOp | Bat.MaxOp) as op), a, b) ->
      Format.fprintf ppf "%s(%a, %a)"
        (match op with Bat.Pow -> "pow" | Bat.MinOp -> "min2" | _ -> "max2")
        pp a pp b
    | Expr.Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (Expr.binop_sym op) pp b
    | Expr.Unop (op, e) -> Format.fprintf ppf "%s(%a)" (Expr.unop_name op) pp e
    | Expr.Exists e -> Format.fprintf ppf "exists(%a)" pp e
    | Expr.Member (x, s) -> Format.fprintf ppf "in(%a, %a)" pp x pp s
    | Expr.Union (a, b) -> Format.fprintf ppf "union(%a, %a)" pp a pp b
    | Expr.Diff (a, b) -> Format.fprintf ppf "diff(%a, %a)" pp a pp b
    | Expr.Inter (a, b) -> Format.fprintf ppf "inter(%a, %a)" pp a pp b
    | Expr.Flat e -> Format.fprintf ppf "flatten(%a)" pp e
    | Expr.Nest { src; key; inner } -> Format.fprintf ppf "nest[%s, %s](%a)" key inner pp src
    | Expr.Unnest { src; field } -> Format.fprintf ppf "unnest[%s](%a)" field pp src
    | Expr.ExtOp { op; args } -> Format.fprintf ppf "%s(%a)" op (plist ",@ " pp) args

  let expr_to_string e =
    let buf = Buffer.create 64 in
    let ppf = Format.formatter_of_buffer buf in
    Format.pp_set_margin ppf 1000000;
    Format.pp_set_max_indent ppf 999999;
    Format.fprintf ppf "@[<h>%a@]@?" expr_pp e;
    Buffer.contents buf

  let normalize_key e = expr_to_string (Normalize.canonical e)

  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let kind = function
    | Serve.Admission_refused _ -> "admission"
    | Serve.Breaker_open _ -> "breaker-open"
    | Serve.Bad_request _ -> "bad-request"
    | Serve.Exec_error _ -> "exec"

  let message = function
    | Serve.Admission_refused m | Serve.Bad_request m | Serve.Exec_error m -> m
    | Serve.Breaker_open s -> Printf.sprintf "retry in %.3gs" s

  let render_error rid e = Printf.sprintf "%d err %s: %s" rid (kind e) (escape (message e))

  let render_reply rid = function
    | Ok (Serve.Value { value; cached; version }) ->
      Printf.sprintf "%d %s v%d %s" rid
        (if cached then "hit" else "ok")
        version
        (escape (value_to_string value))
    | Ok (Serve.Executed { version; outcomes }) ->
      Printf.sprintf "%d ok v%d %s" rid version (escape (String.concat "; " outcomes))
    | Ok (Serve.Pinned v) -> Printf.sprintf "%d ok pinned v%d" rid v
    | Ok Serve.Unpinned -> Printf.sprintf "%d ok unpinned" rid
    | Error e -> render_error rid e
end

(* {1 Seeded values} *)

let edge_floats =
  [
    Float.nan;
    Float.neg Float.nan;
    Float.infinity;
    Float.neg_infinity;
    0.0;
    -0.0;
    1e-310;
    5e-324;
    -1e-310;
    Float.min_float;
    Float.max_float;
    1e300;
    -1e300;
    0.1;
    1.0 /. 3.0;
    123456789012345.0;
    1e12;
    1e-5;
    2.5;
  ]

let edge_ints = [ 0; 1; -1; 42; Int.min_int; Int.max_int; Int.min_int + 1; 1 lsl 40 ]

let edge_strings =
  [
    "";
    "plain";
    "with \"quotes\"";
    "back\\slash";
    "new\nline";
    "tab\tand\rreturn";
    "\000\001\031\127\255";
    "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac";
    "trailing\\";
    "{<[,]>}: @";
  ]

let random_string g =
  let n = Prng.int g 12 in
  String.init n (fun _ ->
      match Prng.int g 6 with
      | 0 -> Char.chr (Prng.int g 256)
      | 1 -> Prng.choose g [| '"'; '\\'; '\n'; '\t'; '\000'; ' '; ','; '@' |]
      | _ -> Char.chr (Char.code 'a' + Prng.int g 26))

let random_atom g =
  match Prng.int g 5 with
  | 0 ->
    Atom.Int
      (if Prng.bool g then Prng.choose g (Array.of_list edge_ints)
       else Prng.int g 2_000_001 - 1_000_000)
  | 1 ->
    Atom.Flt
      (match Prng.int g 3 with
      | 0 -> Prng.choose g (Array.of_list edge_floats)
      | 1 -> Prng.float g 10.0 -. 5.0
      | _ -> Int64.float_of_bits (Prng.bits64 g))
  | 2 ->
    Atom.Str
      (if Prng.bool g then Prng.choose g (Array.of_list edge_strings) else random_string g)
  | 3 -> Atom.Bool (Prng.bool g)
  | _ -> Atom.Oid (if Prng.int g 4 = 0 then Prng.choose g (Array.of_list edge_ints) else Prng.int g 5000)

let random_label g = Prng.choose g [| "a"; "b"; "term"; "tf"; "x y"; ""; "l\nm"; "k\\" |]

let rec random_value g depth =
  let items () = List.init (Prng.int g 5) (fun _ -> random_value g (depth - 1)) in
  match if depth <= 0 then 0 else Prng.int g 5 with
  | 0 | 1 -> Value.Atom (random_atom g)
  | 2 -> Value.Tup (List.init (Prng.int g 4) (fun _ -> (random_label g, random_value g (depth - 1))))
  | 3 -> Value.VSet (items ())
  | _ ->
    let meta = List.init (Prng.int g 3) (fun _ -> random_label g) in
    Value.Xv { ext = Prng.choose g [| "CONTREP"; "LIST"; "EXT" |]; meta; items = items () }

let rec atoms_of acc = function
  | Value.Atom a -> a :: acc
  | Value.Tup fields -> List.fold_left (fun acc (_, v) -> atoms_of acc v) acc fields
  | Value.VSet items | Value.Xv { items; _ } -> List.fold_left atoms_of acc items

(* [v] alone and inside a set: a top-level atom and a nested one take
   different paths through the writer *)
let check_value label v =
  Alcotest.(check string) label (Old_print.value_to_string v) (Value.to_string v);
  Alcotest.(check string) (label ^ ": nested")
    (Old_print.value_to_string (Value.VSet [ v ]))
    (Value.to_string (Value.VSet [ v ]));
  List.iter
    (fun a ->
      Alcotest.(check string) (label ^ ": atom") (Old_print.atom_to_string a) (Atom.to_string a))
    (atoms_of [] v)

let corpus_results () =
  let st = Corpus.storage () in
  List.map
    (fun src -> (src, ok (Eval.query_value st (ok (Parser.parse_expr src)))))
    Corpus.queries

let seeded_values () =
  let g = Prng.create 24 in
  List.init 2400 (fun i -> random_value g (1 + (i mod 4)))

let test_edge_cases () =
  List.iter
    (fun f -> check_value (Printf.sprintf "float %h" f) (Value.flt f))
    edge_floats;
  List.iter (fun i -> check_value (string_of_int i) (Value.int i)) edge_ints;
  List.iter (fun i -> check_value ("oid " ^ string_of_int i) (Value.Atom (Atom.Oid i))) edge_ints;
  List.iter (fun s -> check_value (String.escaped s) (Value.str s)) edge_strings;
  List.iter
    (fun v -> check_value (Old_print.value_to_string v) v)
    [
      Value.bool true;
      Value.bool false;
      Value.VSet [];
      Value.Tup [];
      Value.vlist [];
      Value.contrep [];
      Value.contrep ~space:"Text" [ ("a", 1.0); ("b\"", 0.5) ];
      Value.Xv { ext = "X"; meta = [ "m"; "n" ]; items = [ Value.vlist [ Value.int 1 ]; Value.VSet [] ] };
      Value.VSet [ Value.Tup [ ("a", Value.VSet [ Value.Tup [] ]) ]; Value.VSet [ Value.VSet [] ] ];
    ];
  (* the exact text of a few, so the oracle itself is pinned too *)
  List.iter
    (fun (want, v) -> Alcotest.(check string) want want (Value.to_string v))
    [
      ("nan", Value.flt Float.nan);
      ("-inf", Value.flt Float.neg_infinity);
      ("-0", Value.flt (-0.0));
      ("1e-310", Value.flt 1e-310);
      ("0.1", Value.flt 0.1);
      ("@7", Value.Atom (Atom.Oid 7));
      ("\"a\\n\\\"b\\\"\"", Value.str "a\n\"b\"");
      ("{<a: 1, b: true>, <a: -2, b: false>}",
        Value.VSet
          [
            Value.Tup [ ("a", Value.int 1); ("b", Value.bool true) ];
            Value.Tup [ ("a", Value.int (-2)); ("b", Value.bool false) ];
          ]);
      ("CONTREP(Text)[<term: \"x\", tf: 2>]", Value.contrep ~space:"Text" [ ("x", 2.0) ]);
      ("LIST[]", Value.vlist []);
    ]

let test_corpus_values () =
  let results = corpus_results () in
  Alcotest.(check bool) "the whole corpus ran" true (List.length results >= 50);
  List.iter (fun (src, v) -> check_value src v) results

let test_seeded_values () =
  List.iteri (fun i v -> check_value (Printf.sprintf "seeded value %d" i) v) (seeded_values ())

(* {1 The number writers}

   [Atom.add_float] against [Printf.sprintf "%.12g"] and [Atom.add_int]
   against [string_of_int], byte for byte. *)

let float_text x =
  let buf = Buffer.create 32 in
  Atom.add_float buf x;
  Buffer.contents buf

let int_text n =
  let buf = Buffer.create 24 in
  Atom.add_int buf n;
  Buffer.contents buf

let check_float x =
  let want = Printf.sprintf "%.12g" x and got = float_text x in
  if not (String.equal want got) then Alcotest.failf "%h: %%.12g gives %s, the writer %s" x want got

let check_floats xs = List.iter (fun x -> check_float x; check_float (Float.neg x)) xs

(* [x] and its [k] neighbours either side *)
let around k x =
  let rec walk f x i acc = if i = 0 then acc else walk f (f x) (i - 1) (f x :: acc) in
  x :: (walk Float.pred x k [] @ walk Float.succ x k [])

let pow10 e = float_of_string ("1e" ^ string_of_int e)

let test_float_writer_seeded () =
  let g = Prng.create 27 in
  (* what a ranking reply holds: sums of one to four beliefs *)
  for _ = 1 to 250_000 do
    let terms = 1 + Prng.int g 4 in
    let sum = ref 0.0 in
    for _ = 1 to terms do
      sum := !sum +. if Prng.int g 3 = 0 then 0.4 else 0.4 +. Prng.float g 0.6
    done;
    check_float !sum
  done;
  (* any double at all, either sign *)
  for _ = 1 to 250_000 do
    check_float (Int64.float_of_bits (Prng.bits64 g))
  done;
  (* uniform in each decade from 1e-6 to 1e14, either sign *)
  for e = -6 to 14 do
    let lo = pow10 e in
    for _ = 1 to 12_000 do
      check_floats [ lo +. Prng.float g (9.0 *. lo) ]
    done
  done

let test_float_writer_edges () =
  (* powers of ten and their neighbours, across the whole range *)
  for e = -323 to 308 do
    check_floats (around 3 (pow10 e))
  done;
  (* a carry through all twelve digits, into the next decade (and out
     of the fixed notation at 1e12) *)
  for e = -6 to 14 do
    let top = pow10 (e + 1) in
    check_floats (around 3 (top -. (top *. 5e-13)));
    check_floats (around 3 (top -. (top *. 4.9e-13)))
  done;
  check_floats
    [ 999999999999.5; 9.9999999999995; 99999999999.95; 0.000999999999999995; 0.00999999999999995 ];
  (* exactly halfway at the twelfth digit: [j / 2^(12-e)] for odd [j]
     has thirteen significant digits ending in 5 *)
  let g = Prng.create 28 in
  for e = -4 to 11 do
    let d = 12 - e in
    let lo = Float.to_int (Float.ceil (Float.ldexp (pow10 e) d))
    and hi = Float.to_int (Float.ldexp (pow10 (e + 1)) d) in
    for _ = 1 to 200 do
      let j = (lo + Prng.int g (hi - lo)) lor 1 in
      if j < hi then check_floats (around 1 (Float.ldexp (Float.of_int j) (-d)))
    done
  done;
  (* and within a few ulps of halfway, either side, in every decade of
     the fixed notation *)
  for e = -4 to 11 do
    let s = pow10 (11 - e) in
    for _ = 1 to 300 do
      let n = 100_000_000_000 + Prng.int g 900_000_000_000 in
      check_floats (around 4 ((Float.of_int n +. 0.5) /. s))
    done
  done;
  for e = 12 to 15 do
    for _ = 1 to 200 do
      let m = 100_000_000_000 + Prng.int g 900_000_000_000 in
      check_floats [ Float.of_int ((10 * m) + 5) *. pow10 (e - 12) ]
    done
  done;
  (* the values every fallback must keep *)
  check_floats
    ([ Float.nan; Float.infinity; 0.0; Float.min_float; Float.max_float; 5e-324; 1e-310 ]
    @ around 2 Float.min_float @ around 2 Float.max_float
    @ around 2 (Float.pred Float.min_float)
    @ [ 1e-4; 1e12; 0.1; 0.5; 1.5; 2.5; 1.0 /. 3.0; 2.0 /. 3.0 ])

let test_int_writer () =
  let check n = Alcotest.(check string) (string_of_int n) (string_of_int n) (int_text n) in
  List.iter check (Int.min_int :: Int.max_int :: (Int.min_int + 1) :: (Int.max_int - 1) :: edge_ints);
  for n = -1000 to 1000 do
    check n
  done;
  let p = ref 1 in
  for _ = 1 to 18 do
    p := !p * 10;
    List.iter check [ !p - 1; !p; !p + 1; - !p + 1; - !p; - !p - 1 ]
  done;
  let g = Prng.create 29 in
  for _ = 1 to 100_000 do
    let n = Int64.to_int (Prng.bits64 g) in
    if not (String.equal (string_of_int n) (int_text n)) then
      Alcotest.failf "%d: the writer gives %s" n (int_text n)
  done

(* {1 Result-cache keys} *)

(* Every binder renamed ([x] becomes [r_x]); the query means the same
   and must normalize to the same key. *)
let rec rename env (e : Expr.t) : Expr.t =
  let go = rename env in
  let r x = "r_" ^ x in
  match e with
  | Expr.Extent _ | Expr.Lit _ -> e
  | Expr.Var x -> if List.mem x env then Expr.Var (r x) else e
  | Expr.Field (e, f) -> Expr.Field (go e, f)
  | Expr.Tuple fields -> Expr.Tuple (List.map (fun (l, fe) -> (l, go fe)) fields)
  | Expr.Map { v; body; src } -> Expr.Map { v = r v; body = rename (v :: env) body; src = go src }
  | Expr.Select { v; pred; src } ->
    Expr.Select { v = r v; pred = rename (v :: env) pred; src = go src }
  | Expr.Join { v1; v2; pred; left; right; l1; l2 } ->
    Expr.Join
      { v1 = r v1; v2 = r v2; pred = rename (v1 :: v2 :: env) pred; left = go left; right = go right; l1; l2 }
  | Expr.Semijoin { v1; v2; pred; left; right } ->
    Expr.Semijoin
      { v1 = r v1; v2 = r v2; pred = rename (v1 :: v2 :: env) pred; left = go left; right = go right }
  | Expr.Aggr (a, e) -> Expr.Aggr (a, go e)
  | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
  | Expr.Unop (op, e) -> Expr.Unop (op, go e)
  | Expr.Exists e -> Expr.Exists (go e)
  | Expr.Member (x, s) -> Expr.Member (go x, go s)
  | Expr.Union (a, b) -> Expr.Union (go a, go b)
  | Expr.Diff (a, b) -> Expr.Diff (go a, go b)
  | Expr.Inter (a, b) -> Expr.Inter (go a, go b)
  | Expr.Flat e -> Expr.Flat (go e)
  | Expr.Nest { src; key; inner } -> Expr.Nest { src = go src; key; inner }
  | Expr.Unnest { src; field } -> Expr.Unnest { src = go src; field }
  | Expr.ExtOp { op; args } -> Expr.ExtOp { op; args = List.map go args }

let test_normalize_keys () =
  List.iter
    (fun src ->
      let e = ok (Parser.parse_expr src) in
      let renamed = rename [] e in
      Alcotest.(check string) (src ^ ": expression") (Old_print.expr_to_string e) (Expr.to_string e);
      Alcotest.(check string) (src ^ ": renamed expression") (Old_print.expr_to_string renamed)
        (Expr.to_string renamed);
      let key = Normalize.key e in
      Alcotest.(check string) (src ^ ": key") (Old_print.normalize_key e) key;
      Alcotest.(check string) (src ^ ": renamed key") (Old_print.normalize_key renamed)
        (Normalize.key renamed);
      Alcotest.(check string) (src ^ ": renaming keeps the key") key (Normalize.key renamed))
    Corpus.queries

(* {1 Reply lines} *)

let replies values =
  let errors =
    [
      Serve.Admission_refused "queue full";
      Serve.Breaker_open 1.25;
      Serve.Bad_request "parse error at 3:\nunexpected \\";
      Serve.Exec_error "";
    ]
  in
  List.concat
    [
      List.mapi
        (fun i value -> Ok (Serve.Value { value; cached = i mod 2 = 0; version = i }))
        values;
      [
        Ok (Serve.Executed { version = 4; outcomes = [] });
        Ok (Serve.Executed { version = 5; outcomes = [ "inserted 1 row" ] });
        Ok (Serve.Executed { version = 6; outcomes = [ "a\nb"; "c\\d"; "e" ] });
        Ok (Serve.Pinned 9);
        Ok Serve.Unpinned;
      ];
      List.map (fun e -> Error e) errors;
    ]

let test_render_reply () =
  let values = List.map snd (corpus_results ()) @ seeded_values () in
  List.iteri
    (fun i reply ->
      Alcotest.(check string) (Printf.sprintf "reply %d" i)
        (Old_print.render_reply i reply) (Protocol.render_reply i reply))
    (replies values);
  (* one line reused for every reply, as the server does: the bytes it
     sends are the old line and its newline *)
  let l = Protocol.line () in
  let sent () = Bytes.sub_string (Protocol.bytes l) 0 (Protocol.length l) in
  List.iteri
    (fun i reply ->
      Protocol.reply_into l i reply;
      Alcotest.(check string) (Printf.sprintf "reply %d, reused line" i)
        (Old_print.render_reply i reply ^ "\n") (sent ()))
    (replies values);
  List.iter
    (fun e ->
      Protocol.refusal_into l e;
      Alcotest.(check string) "refusal, reused line" (Old_print.render_error 0 e ^ "\n") (sent ()))
    [ Serve.Admission_refused "sessions\\full\n"; Serve.Breaker_open 0.5 ];
  List.iter
    (fun e ->
      Alcotest.(check string) "refusal" (Old_print.render_error 0 e) (Protocol.render_refusal e))
    [ Serve.Admission_refused "sessions\\full"; Serve.Breaker_open 0.5 ]

let test_escape () =
  let g = Prng.create 25 in
  let strings = edge_strings @ List.init 2000 (fun _ -> random_string g) in
  List.iter
    (fun s ->
      let e = Protocol.escape s in
      Alcotest.(check string) (String.escaped s) (Old_print.escape s) e;
      if not (String.exists (fun c -> c = '\\' || c = '\n') s) then
        Alcotest.(check bool) (String.escaped s ^ ": returned without a copy") true (e == s))
    strings

(* {1 Past the old margin}

   The old printers broke lines once the text passed 1,000,000
   columns; a reply of such a value carried literal [\n] escapes. *)

let test_over_the_margin () =
  let v =
    Value.VSet
      (List.init 100_000 (fun i -> Value.Tup [ ("a", Value.int i); ("b", Value.str "row") ]))
  in
  let text = Value.to_string v in
  Alcotest.(check bool) "over 1 MB" true (String.length text > 1_000_000);
  Alcotest.(check bool) "no line break in the value" false (String.contains text '\n');
  let prefix = "3 ok v2 " in
  let line = Protocol.render_reply 3 (Ok (Serve.Value { value = v; cached = false; version = 2 })) in
  Alcotest.(check bool) "the reply is one line" false (String.contains line '\n');
  Alcotest.(check bool) "status and version lead" true (String.starts_with ~prefix line);
  let n = String.length prefix in
  Alcotest.(check bool) "payload is the escaped value" true
    (String.equal (String.sub line n (String.length line - n)) (Protocol.escape text));
  (* a line that carried it carries a small reply next *)
  let l = Protocol.line () in
  Protocol.reply_into l 3 (Ok (Serve.Value { value = v; cached = false; version = 2 }));
  Alcotest.(check int) "the reused line holds it and a newline" (String.length line + 1) (Protocol.length l);
  Protocol.reply_into l 4 (Ok (Serve.Value { value = Value.str "a\nb"; cached = true; version = 5 }));
  Alcotest.(check string) "then a small reply" "4 hit v5 \"a\\\\nb\"\n"
    (Bytes.sub_string (Protocol.bytes l) 0 (Protocol.length l));
  let e = Expr.Lit (v, Mirror_core.Types.Set (Mirror_core.Types.Atomic Atom.TInt)) in
  Alcotest.(check bool) "no line break in an expression" false
    (String.contains (Expr.to_string (Expr.Map { v = "x"; body = Expr.Var "x"; src = e })) '\n')

let () =
  Alcotest.run "print"
    [
      ( "oracle",
        [
          Alcotest.test_case "edge-case values and atoms" `Quick test_edge_cases;
          Alcotest.test_case "corpus results" `Quick test_corpus_values;
          Alcotest.test_case "2400 seeded values" `Quick test_seeded_values;
          Alcotest.test_case "normalize keys, renamed binders" `Quick test_normalize_keys;
          Alcotest.test_case "reply lines of every kind" `Quick test_render_reply;
          Alcotest.test_case "escape, no copy when clean" `Quick test_escape;
        ] );
      ( "numbers",
        [
          Alcotest.test_case "1M seeded floats against %.12g" `Quick test_float_writer_seeded;
          Alcotest.test_case "powers of ten, carries, ties, fallbacks" `Quick test_float_writer_edges;
          Alcotest.test_case "ints against string_of_int" `Quick test_int_writer;
        ] );
      ("margin", [ Alcotest.test_case "a value over 1 MB is one line" `Quick test_over_the_margin ]);
    ]
