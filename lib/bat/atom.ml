type t =
  | Int of int
  | Flt of float
  | Str of string
  | Bool of bool
  | Oid of int

type ty = TInt | TFlt | TStr | TBool | TOid

let type_of = function
  | Int _ -> TInt
  | Flt _ -> TFlt
  | Str _ -> TStr
  | Bool _ -> TBool
  | Oid _ -> TOid

let ty_name = function
  | TInt -> "int"
  | TFlt -> "flt"
  | TStr -> "str"
  | TBool -> "bool"
  | TOid -> "oid"

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Flt x, Flt y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Oid x, Oid y -> x = y
  | (Int _ | Flt _ | Str _ | Bool _ | Oid _), _ -> false

let rank = function
  | Int _ -> 0
  | Flt _ -> 1
  | Str _ -> 2
  | Bool _ -> 3
  | Oid _ -> 4

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Flt x, Flt y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Oid x, Oid y -> Stdlib.compare x y
  | _, _ -> Stdlib.compare (rank a) (rank b)

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Flt x -> Hashtbl.hash (1, x)
  | Str x -> Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)
  | Oid x -> Hashtbl.hash (4, x)

(* {1 Numbers as text}

   Ints, and floats as ["%.12g"] prints them, without a C format call.
   [printf] is kept only as the fallback for floats the fast path does
   not cover. *)

external format_float : string -> float -> string = "caml_format_float"

(* ["00"] to ["99"], two bytes each *)
let two_digits =
  String.init 200 (fun i -> Char.chr (Char.code '0' + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Room for the text of any int ([min_int] is a sign and 19 digits)
   or fast-path float (a sign, ["0."], 3 zeros and 12 digits).  One
   per domain, since values may be rendered on several. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 24)

let[@inline] put_pair b pos d =
  Bytes.unsafe_set b pos (String.unsafe_get two_digits (2 * d));
  Bytes.unsafe_set b (pos + 1) (String.unsafe_get two_digits ((2 * d) + 1))

let add_int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + n))
  else begin
    let b = Domain.DLS.get scratch in
    (* digits from the right, of [-|n|], so [min_int] needs no case *)
    let m = ref (if n < 0 then n else -n) and pos = ref 24 in
    while !m <= -100 do
      let q = !m / 100 in
      pos := !pos - 2;
      put_pair b !pos ((q * 100) - !m);
      m := q
    done;
    if !m <= -10 then begin
      pos := !pos - 2;
      put_pair b !pos (- !m)
    end
    else begin
      decr pos;
      Bytes.unsafe_set b !pos (Char.unsafe_chr (Char.code '0' - !m))
    end;
    if n < 0 then begin
      decr pos;
      Bytes.unsafe_set b !pos '-'
    end;
    Buffer.add_subbytes buf b !pos (24 - !pos)
  end

(* [decade.(e + 4)] is the double nearest 10^e, for e in -4 .. 11;
   [scale.(k)] is 10^k, exact for k in 0 .. 15 *)
let decade = Array.init 16 (fun i -> float_of_string ("1e" ^ string_of_int (i - 4)))
let scale = Array.init 16 (fun k -> float_of_string ("1e" ^ string_of_int k))

let add_float_slow buf x = Buffer.add_string buf (format_float "%.12g" x)

(* The 12 significant digits of [x] as ["%.12g"] rounds them, for
   1e-4 <= |x| < 1e12, where ["%g"] takes the fixed notation.  The
   decade [e] comes from the binary exponent and one comparison; then
   [p] is [|x| * 10^(11-e)] rounded once ([10^(11-e)] is an exact
   double).  In [1e11, 1e12) doubles lie at most 2^-13 apart, so
   [n + 1/2] is one of them, and rounding keeps [p]'s fraction on the
   same side of 1/2 as the exact product's, or puts it on 1/2 itself:
   [p]'s digits round exactly as the exact product's do, but for that
   tie.  The tie (an exact one or a near one), a [p] outside
   [1e11, 1e12) (|x| within an ulp of a power of ten) and a result that
   rounds up to 10^12 fall back to [printf]. *)
let add_float buf x =
  let a = Float.abs x in
  if not (a >= 1e-4 && a < 1e12) then add_float_slow buf x
  else begin
    let be = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) - 1023 in
    (* floor (be * log10 2), off by at most one below *)
    let e = (be * 78913) asr 18 in
    let e = if e < 11 && a >= Array.unsafe_get decade (e + 5) then e + 1 else e in
    let s = Array.unsafe_get scale (11 - e) in
    let p = a *. s in
    if p < 1e11 || p >= 1e12 then add_float_slow buf x
    else begin
      let n = Float.to_int p in
      let frac = p -. Float.of_int n in
      if frac = 0.5 then add_float_slow buf x
      else begin
        let n = if frac > 0.5 then n + 1 else n in
        (* 10^12 is 10^11 a decade up *)
        let carry = n = 1_000_000_000_000 in
        let n = if carry then 100_000_000_000 else n and e = if carry then e + 1 else e in
        if e > 11 then add_float_slow buf x
        else begin
          let b = Domain.DLS.get scratch in
          let o = if x < 0.0 then 1 else 0 in
          Bytes.unsafe_set b 0 '-';
          (* the 12 digits end at [stop]; the text ends after the last
             one that is not 0 *)
          let digits stop =
            let m = ref n in
            for i = 1 to 6 do
              let q = !m / 100 in
              put_pair b (stop - (2 * i)) (!m - (q * 100));
              m := q
            done;
            let last = ref (stop - 1) in
            while Bytes.unsafe_get b !last = '0' do
              decr last
            done;
            !last + 1
          in
          let len =
            if e < 0 then begin
              (* ["0."], then [-e-1] zeros, then the digits *)
              let z = o + 1 - e in
              Bytes.unsafe_set b o '0';
              Bytes.unsafe_set b (o + 1) '.';
              for i = o + 2 to z - 1 do
                Bytes.unsafe_set b i '0'
              done;
              digits (z + 12)
            end
            else begin
              (* the digits one place right, then the integer ones back
                 and the point after them *)
              let len = digits (o + 13) in
              for i = o to o + e do
                Bytes.unsafe_set b i (Bytes.unsafe_get b (i + 1))
              done;
              Bytes.unsafe_set b (o + e + 1) '.';
              if len <= o + e + 2 then o + e + 1 else len
            end
          in
          Buffer.add_subbytes buf b 0 len
        end
      end
    end
  end

let to_buffer buf = function
  | Int x -> add_int buf x
  | Flt x -> add_float buf x
  | Str x ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped x);
    Buffer.add_char buf '"'
  | Bool x -> Buffer.add_string buf (if x then "true" else "false")
  | Oid x ->
    Buffer.add_char buf '@';
    add_int buf x

let to_string a =
  let buf = Buffer.create 16 in
  to_buffer buf a;
  Buffer.contents buf

let pp ppf a = Format.pp_print_string ppf (to_string a)

let parse ty s =
  let fail () = Error (Printf.sprintf "cannot parse %S as %s" s (ty_name ty)) in
  match ty with
  | TInt -> ( match int_of_string_opt s with Some v -> Ok (Int v) | None -> fail ())
  | TFlt -> ( match float_of_string_opt s with Some v -> Ok (Flt v) | None -> fail ())
  | TBool -> ( match bool_of_string_opt s with Some v -> Ok (Bool v) | None -> fail ())
  | TOid ->
    if String.length s > 1 && s.[0] = '@' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some v -> Ok (Oid v)
      | None -> fail ()
    else fail ()
  | TStr -> ( try Ok (Str (Scanf.sscanf s "%S" (fun x -> x))) with Scanf.Scan_failure _ | End_of_file -> fail ())

let wrong got want =
  invalid_arg (Printf.sprintf "Atom: expected %s, got %s" want (ty_name (type_of got)))

let as_int = function Int x -> x | a -> wrong a "int"

let as_float = function
  | Flt x -> x
  | Int x -> Float.of_int x
  | a -> wrong a "flt"

let as_string = function Str x -> x | a -> wrong a "str"
let as_bool = function Bool x -> x | a -> wrong a "bool"
let as_oid = function Oid x -> x | a -> wrong a "oid"
