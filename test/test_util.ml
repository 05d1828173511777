(* Tests for the mirror_util library. *)

module Prng = Mirror_util.Prng
module Vecmath = Mirror_util.Vecmath
module Stat = Mirror_util.Stat
module Stringx = Mirror_util.Stringx
module Tablefmt = Mirror_util.Tablefmt

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

(* {1 Prng} *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 13 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 13)
  done

let test_prng_int_rejects_nonpositive () =
  let g = Prng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in bounds" true (v >= 0.0 && v < 2.5)
  done

let test_prng_uniformity () =
  let g = Prng.create 3 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d roughly uniform (%d)" i c)
        true
        (c > (n / 10) - 500 && c < (n / 10) + 500))
    buckets

let test_prng_gaussian_moments () =
  let g = Prng.create 5 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.gaussian g) in
  let mean = Stat.mean xs and sd = Stat.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (sd -. 1.0) < 0.02)

let test_prng_split_independent () =
  let g = Prng.create 9 in
  let h = Prng.split g in
  let a = Prng.bits64 g and b = Prng.bits64 h in
  Alcotest.(check bool) "split streams differ" false (Int64.equal a b)

let test_prng_shuffle_permutation () =
  let g = Prng.create 12 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample_weighted () =
  let g = Prng.create 21 in
  let w = [| 0.0; 1.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Prng.sample_weighted g w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(0);
  Alcotest.(check bool) "3x ratio approx" true
    (Float.of_int counts.(2) /. Float.of_int counts.(1) > 2.5
    && Float.of_int counts.(2) /. Float.of_int counts.(1) < 3.5)

let test_prng_perm () =
  let g = Prng.create 33 in
  let p = Prng.perm g 10 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "perm is permutation" (Array.init 10 (fun i -> i)) sorted

(* {1 Vecmath} *)

let test_dot () = check_float "dot" 32.0 (Vecmath.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_dot_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vecmath.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vecmath.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_norm_dist () =
  check_float "norm2" 5.0 (Vecmath.norm2 [| 3.; 4. |]);
  check_float "dist2" 25.0 (Vecmath.dist2 [| 0.; 0. |] [| 3.; 4. |])

let test_add_sub_scale () =
  Alcotest.(check (array (float 1e-9))) "add" [| 5.; 7. |] (Vecmath.add [| 1.; 2. |] [| 4.; 5. |]);
  Alcotest.(check (array (float 1e-9))) "sub" [| -3.; -3. |] (Vecmath.sub [| 1.; 2. |] [| 4.; 5. |]);
  Alcotest.(check (array (float 1e-9))) "scale" [| 2.; 4. |] (Vecmath.scale 2.0 [| 1.; 2. |])

let test_mean_vectors () =
  Alcotest.(check (array (float 1e-9)))
    "mean" [| 2.; 3. |]
    (Vecmath.mean [ [| 1.; 2. |]; [| 3.; 4. |] ])

let test_normalize () =
  Alcotest.(check (array (float 1e-9))) "l1" [| 0.25; 0.75 |] (Vecmath.normalize_l1 [| 1.; 3. |]);
  check_float "l2 norm is 1" 1.0 (Vecmath.norm2 (Vecmath.normalize_l2 [| 3.; 4. |]));
  Alcotest.(check (array (float 1e-9))) "zero unchanged" [| 0.; 0. |] (Vecmath.normalize_l1 [| 0.; 0. |])

let test_cosine () =
  check_float "parallel" 1.0 (Vecmath.cosine [| 1.; 1. |] [| 2.; 2. |]);
  check_float "orthogonal" 0.0 (Vecmath.cosine [| 1.; 0. |] [| 0.; 1. |]);
  check_float "zero vector" 0.0 (Vecmath.cosine [| 0.; 0. |] [| 1.; 1. |])

let test_log_sum_exp () =
  let v = Vecmath.log_sum_exp [| 0.0; 0.0 |] in
  check_float "lse(0,0)=ln2" (log 2.0) v;
  (* Stability: huge values must not overflow. *)
  let v = Vecmath.log_sum_exp [| 1000.0; 1000.0 |] in
  check_float "lse(1000,1000)" (1000.0 +. log 2.0) v

let test_argminmax () =
  Alcotest.(check int) "argmax" 2 (Vecmath.argmax [| 1.; 0.; 9.; 3. |]);
  Alcotest.(check int) "argmin" 1 (Vecmath.argmin [| 1.; 0.; 9.; 3. |]);
  Alcotest.(check int) "first tie wins" 0 (Vecmath.argmax [| 5.; 5. |])

let test_solve () =
  (* 2x + y = 5 ; x - y = 1  ->  x = 2, y = 1 *)
  (match Vecmath.solve [| [| 2.; 1. |]; [| 1.; -1. |] |] [| 5.; 1. |] with
  | Some x ->
    Alcotest.(check (float 1e-9)) "x" 2.0 x.(0);
    Alcotest.(check (float 1e-9)) "y" 1.0 x.(1)
  | None -> Alcotest.fail "solvable system reported singular");
  (* singular *)
  (match Vecmath.solve [| [| 1.; 2. |]; [| 2.; 4. |] |] [| 1.; 2. |] with
  | None -> ()
  | Some _ -> Alcotest.fail "singular system solved");
  (* pivoting required (zero on the diagonal) *)
  match Vecmath.solve [| [| 0.; 1. |]; [| 1.; 0. |] |] [| 3.; 7. |] with
  | Some x ->
    Alcotest.(check (float 1e-9)) "pivot x" 7.0 x.(0);
    Alcotest.(check (float 1e-9)) "pivot y" 3.0 x.(1)
  | None -> Alcotest.fail "pivoting failed"

let prop_solve_inverts =
  QCheck.Test.make ~name:"solve recovers the solution of A x = b" ~count:100
    QCheck.(
      pair
        (array_of_size (Gen.return 9) (float_range (-5.) 5.))
        (array_of_size (Gen.return 3) (float_range (-5.) 5.)))
    (fun (flat, x) ->
      let a = Array.init 3 (fun i -> Array.sub flat (3 * i) 3) in
      (* b := A x, then solving must return (approximately) x *)
      let b = Array.init 3 (fun i -> Vecmath.dot a.(i) x) in
      match Vecmath.solve a b with
      | None -> QCheck.assume_fail () (* singular draws are skipped *)
      | Some got ->
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) got x)

(* {1 Stat} *)

let test_stat_basic () =
  check_float "mean" 2.5 (Stat.mean [| 1.; 2.; 3.; 4. |]);
  check_float "variance" 1.25 (Stat.variance [| 1.; 2.; 3.; 4. |]);
  check_float "median even" 2.5 (Stat.median [| 4.; 1.; 3.; 2. |]);
  check_float "median odd" 2.0 (Stat.median [| 3.; 1.; 2. |])

let test_stat_percentile () =
  let a = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  check_float "p50" 50.0 (Stat.percentile a 50.0);
  check_float "p100" 100.0 (Stat.percentile a 100.0)

let test_stat_pearson () =
  let x = [| 1.; 2.; 3.; 4. |] in
  check_float "self-correlation" 1.0 (Stat.pearson x x);
  check_float "anti-correlation" (-1.0) (Stat.pearson x [| 4.; 3.; 2.; 1. |]);
  check_float "constant gives 0" 0.0 (Stat.pearson x [| 2.; 2.; 2.; 2. |])

let test_stat_entropy () =
  check_float "uniform 2 bins" (log 2.0) (Stat.entropy [| 1.0; 1.0 |]);
  check_float "point mass" 0.0 (Stat.entropy [| 5.0; 0.0 |]);
  check_float "empty" 0.0 (Stat.entropy [| 0.0; 0.0 |])

let test_stat_histogram () =
  let h = Stat.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; -1.0; 99.0 |] in
  Alcotest.(check (array int)) "bins" [| 2; 2; 0; 2 |] h

(* {1 Stringx} *)

let test_split_on () =
  Alcotest.(check (list string)) "words" [ "a"; "bc"; "d" ]
    (Stringx.split_on (fun c -> c = ' ') " a bc  d ");
  Alcotest.(check (list string)) "empty" [] (Stringx.split_on (fun c -> c = ' ') "   ")

let test_affixes () =
  Alcotest.(check bool) "prefix" true (Stringx.starts_with ~prefix:"ab" "abc");
  Alcotest.(check bool) "not prefix" false (Stringx.starts_with ~prefix:"bc" "abc");
  Alcotest.(check bool) "suffix" true (Stringx.ends_with ~suffix:"bc" "abc");
  Alcotest.(check bool) "not suffix" false (Stringx.ends_with ~suffix:"ab" "abc")

let test_pad () =
  Alcotest.(check string) "right" "ab  " (Stringx.pad_right 4 "ab");
  Alcotest.(check string) "left" "  ab" (Stringx.pad_left 4 "ab");
  Alcotest.(check string) "no-op" "abcde" (Stringx.pad_left 3 "abcde")

let test_char_classes () =
  Alcotest.(check bool) "alpha" true (Stringx.is_alpha 'z');
  Alcotest.(check bool) "not alpha" false (Stringx.is_alpha '3');
  Alcotest.(check bool) "digit" true (Stringx.is_digit '7');
  Alcotest.(check bool) "alnum" true (Stringx.is_alnum 'A')

(* {1 Tablefmt} *)

let test_table_render () =
  let t = Tablefmt.create [ ("name", Tablefmt.Left); ("n", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b"; "100" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "header present" true (Stringx.starts_with ~prefix:"name" s);
  Alcotest.(check bool) "right aligned" true
    (String.length s > 0 && String.split_on_char '\n' s |> List.exists (fun l -> l = "alpha    1"))

let test_table_arity_check () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: 2 cells for 1 columns")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

(* {1 Trace} *)

module Trace = Mirror_util.Trace

let test_trace_null_noop () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.is_on t);
  Trace.enter t "a";
  Trace.leave t;
  (* leave on an empty stack is only an error on an enabled trace *)
  Trace.leave t;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.roots t));
  Alcotest.(check int) "with_span still runs f" 7 (Trace.with_span t "x" (fun () -> 7))

let test_trace_tree () =
  let t = Trace.create () in
  Trace.enter t "root";
  Trace.enter t "left";
  Trace.leave ~rows:3 t;
  Trace.enter t "right";
  Trace.event t "memo" ~rows:3 ~attrs:[ ("memo", "hit") ];
  Trace.leave ~rows:5 ~attrs:[ ("k", "v") ] t;
  Trace.leave ~rows:8 t;
  match Trace.root t with
  | None -> Alcotest.fail "no root span"
  | Some sp ->
    Alcotest.(check string) "root name" "root" sp.Trace.name;
    Alcotest.(check (option int)) "root rows" (Some 8) sp.Trace.rows;
    Alcotest.(check (list string)) "children in completion order" [ "left"; "right" ]
      (List.map (fun (c : Trace.span) -> c.Trace.name) sp.Trace.children);
    let right = List.nth sp.Trace.children 1 in
    Alcotest.(check (option string)) "attr recorded" (Some "v")
      (List.assoc_opt "k" right.Trace.attrs);
    Alcotest.(check (list string)) "event is a zero-duration child" [ "memo" ]
      (List.map (fun (c : Trace.span) -> c.Trace.name) right.Trace.children);
    Alcotest.(check bool) "self time excludes children" true
      (Trace.self_seconds sp <= sp.Trace.dur +. 1e-12);
    (* pre-order fold sees all four spans *)
    Alcotest.(check int) "fold count" 4 (Trace.fold (fun n _ -> n + 1) 0 sp)

let test_trace_aggregate_render () =
  let t = Trace.create () in
  for i = 1 to 3 do
    Trace.enter t "op";
    if i = 1 then Trace.event t "op" ~attrs:[ ("memo", "hit") ];
    Trace.leave ~rows:i t
  done;
  let aggs = Trace.aggregate ~flag:(fun s -> List.mem_assoc "memo" s.Trace.attrs) (Trace.roots t) in
  (match List.assoc_opt "op" aggs with
  | None -> Alcotest.fail "no rollup for op"
  | Some a ->
    Alcotest.(check int) "calls" 4 a.Trace.calls;
    Alcotest.(check int) "rows summed" 6 a.Trace.rows;
    Alcotest.(check int) "flagged memo hits" 1 a.Trace.flagged);
  let s = Trace.render t in
  Alcotest.(check bool) "render names the span" true
    (String.split_on_char '\n' s |> List.exists (fun l -> Stringx.starts_with ~prefix:"op" (String.trim l)))

let test_trace_unbalanced_leave () =
  let t = Trace.create () in
  Alcotest.check_raises "unbalanced" (Invalid_argument "Trace.leave: no open span")
    (fun () -> Trace.leave t)

let test_trace_with_span_error () =
  let t = Trace.create () in
  (try Trace.with_span t "boom" (fun () -> failwith "expected") with Failure _ -> ());
  match Trace.root t with
  | Some sp ->
    Alcotest.(check bool) "error attribute recorded" true
      (List.mem_assoc "error" sp.Trace.attrs)
  | None -> Alcotest.fail "span not closed on exception"

(* {1 Jsonx} *)

module Json = Mirror_util.Jsonx

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "test/v1");
        ("n", Json.Int 42);
        ("pi", Json.Float 3.25);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.Arr [ Json.Int 1; Json.Str "two\n\"quoted\"" ]);
      ]
  in
  match Json.parse (Json.to_string ~indent:2 doc) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok doc' ->
    Alcotest.(check (option string)) "schema" (Some "test/v1")
      (Option.bind (Json.member "schema" doc') Json.to_str);
    Alcotest.(check (option int)) "int" (Some 42)
      (Option.bind (Json.member "n" doc') Json.to_int);
    Alcotest.(check (option (float 1e-12))) "float" (Some 3.25)
      (Option.bind (Json.member "pi" doc') Json.to_float);
    (match Option.bind (Json.member "items" doc') Json.to_list with
    | Some [ Json.Int 1; Json.Str s ] ->
      Alcotest.(check string) "escapes survive" "two\n\"quoted\"" s
    | _ -> Alcotest.fail "items array mangled")

let test_json_nonfinite_and_errors () =
  Alcotest.(check string) "nan serialises as null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf serialises as null" "null"
    (Json.to_string (Json.Float Float.infinity));
  (match Json.parse "{\"a\": 1,}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted");
  (match Json.parse "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.parse "  [1, -2.5e1, \"x\"]  " with
  | Ok (Json.Arr [ Json.Int 1; Json.Float f; Json.Str "x" ]) -> check_float "exp float" (-25.0) f
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* {1 Crc32} *)

module Crc32 = Mirror_util.Crc32

(* Known vectors for CRC-32/ISO-HDLC (the IEEE 802.3 polynomial). *)
let test_crc32_vectors () =
  Alcotest.(check int) "empty string" 0 (Crc32.string "");
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "ascii phrase" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog");
  Alcotest.(check int) "all zero bytes" 0x2144DF1C (Crc32.string (String.make 4 '\000'))

let test_crc32_incremental () =
  let whole = Crc32.string "123456789" in
  let chunked = Crc32.update_string (Crc32.update_string Crc32.init "1234") "56789" in
  Alcotest.(check int) "chunked = one-shot" whole chunked;
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "bytes slice" whole (Crc32.update_bytes Crc32.init b ~pos:2 ~len:9)

let test_crc32_hex () =
  Alcotest.(check string) "to_hex" "cbf43926" (Crc32.to_hex 0xCBF43926);
  Alcotest.(check (option int)) "of_hex round trip" (Some 0xCBF43926)
    (Crc32.of_hex "cbf43926");
  Alcotest.(check (option int)) "of_hex rejects garbage" None (Crc32.of_hex "xyzw");
  Alcotest.(check (option int)) "of_hex rejects short input" None (Crc32.of_hex "abc")

let test_crc32_sensitivity () =
  let base = Crc32.string "hello world" in
  Alcotest.(check bool) "single bit flip changes checksum" true
    (base <> Crc32.string "hello worle");
  Alcotest.(check bool) "truncation changes checksum" true
    (base <> Crc32.string "hello worl")

(* {1 Clock} *)

let test_clock_virtual () =
  let c = Mirror_util.Clock.virtual_ () in
  Alcotest.(check bool) "virtual" true (Mirror_util.Clock.is_virtual c);
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Mirror_util.Clock.now c);
  Mirror_util.Clock.advance c 2.5;
  Mirror_util.Clock.advance c 1.5;
  Alcotest.(check (float 1e-9)) "advances" 4.0 (Mirror_util.Clock.now c);
  let c7 = Mirror_util.Clock.virtual_ ~at:7.0 () in
  Alcotest.(check (float 1e-9)) "custom origin" 7.0 (Mirror_util.Clock.now c7)

let test_clock_wall () =
  let c = Mirror_util.Clock.wall in
  Alcotest.(check bool) "not virtual" false (Mirror_util.Clock.is_virtual c);
  let t0 = Mirror_util.Clock.now c in
  Alcotest.(check bool) "monotone enough" true (Mirror_util.Clock.now c >= t0);
  Alcotest.check_raises "cannot advance wall time"
    (Invalid_argument "Clock.advance: cannot advance the wall clock") (fun () ->
      Mirror_util.Clock.advance c 1.0)

let test_clock_advance_negative () =
  let c = Mirror_util.Clock.virtual_ () in
  Alcotest.check_raises "time only moves forward"
    (Invalid_argument "Clock.advance: negative delta") (fun () ->
      Mirror_util.Clock.advance c (-1.0))

(* A monotonic clock clamps a backwards time-source step (an NTP
   adjustment) to the maximum already seen — a deadline that expired
   stays expired, and later readings resume normally once the source
   catches back up. *)
let test_clock_mono_backwards_step () =
  let src = ref 100.0 in
  let c = Mirror_util.Clock.mono_of (fun () -> !src) in
  Alcotest.(check bool) "not virtual" false (Mirror_util.Clock.is_virtual c);
  Alcotest.(check (float 1e-9)) "initial reading" 100.0 (Mirror_util.Clock.now c);
  src := 105.0;
  let deadline = 103.0 in
  Alcotest.(check bool) "deadline expired" true (Mirror_util.Clock.now c > deadline);
  (* NTP steps the source back below the deadline *)
  src := 101.0;
  Alcotest.(check (float 1e-9)) "clamped to the high-water mark" 105.0
    (Mirror_util.Clock.now c);
  Alcotest.(check bool) "never un-expires" true (Mirror_util.Clock.now c > deadline);
  (* the source catches up and the clock moves again *)
  src := 106.5;
  Alcotest.(check (float 1e-9)) "resumes once the source passes the mark" 106.5
    (Mirror_util.Clock.now c);
  Alcotest.check_raises "cannot advance a monotonic clock"
    (Invalid_argument "Clock.advance: cannot advance a monotonic clock") (fun () ->
      Mirror_util.Clock.advance c 1.0)

(* {1 QCheck properties} *)

let prop_lse_ge_max =
  QCheck.Test.make ~name:"log_sum_exp >= max element" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 10) (float_range (-50.) 50.))
    (fun a -> Vecmath.log_sum_exp a >= Array.fold_left Float.max neg_infinity a -. 1e-9)

let prop_normalize_l1_sums_to_one =
  QCheck.Test.make ~name:"normalize_l1 sums to 1 (positive input)" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 10) (float_range 0.1 10.))
    (fun a -> feq ~eps:1e-6 1.0 (Array.fold_left ( +. ) 0.0 (Vecmath.normalize_l1 a)))

let prop_perm_bijective =
  QCheck.Test.make ~name:"perm is bijective" ~count:100
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, n) ->
      let p = Prng.perm (Prng.create seed) n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all (fun b -> b) seen)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mirror_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic streams" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects non-positive bound" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "weighted sampling" `Quick test_prng_sample_weighted;
          Alcotest.test_case "perm" `Quick test_prng_perm;
        ] );
      ( "vecmath",
        [
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "dot dimension check" `Quick test_dot_mismatch;
          Alcotest.test_case "norm and dist" `Quick test_norm_dist;
          Alcotest.test_case "add/sub/scale" `Quick test_add_sub_scale;
          Alcotest.test_case "mean of vectors" `Quick test_mean_vectors;
          Alcotest.test_case "normalisation" `Quick test_normalize;
          Alcotest.test_case "cosine" `Quick test_cosine;
          Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
          Alcotest.test_case "argmax/argmin" `Quick test_argminmax;
          Alcotest.test_case "linear solve" `Quick test_solve;
        ] );
      ( "stat",
        [
          Alcotest.test_case "mean/variance/median" `Quick test_stat_basic;
          Alcotest.test_case "percentile" `Quick test_stat_percentile;
          Alcotest.test_case "pearson" `Quick test_stat_pearson;
          Alcotest.test_case "entropy" `Quick test_stat_entropy;
          Alcotest.test_case "histogram" `Quick test_stat_histogram;
        ] );
      ( "stringx",
        [
          Alcotest.test_case "split_on" `Quick test_split_on;
          Alcotest.test_case "prefix/suffix" `Quick test_affixes;
          Alcotest.test_case "padding" `Quick test_pad;
          Alcotest.test_case "char classes" `Quick test_char_classes;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
        ] );
      ( "clock",
        [
          Alcotest.test_case "virtual clock" `Quick test_clock_virtual;
          Alcotest.test_case "wall clock" `Quick test_clock_wall;
          Alcotest.test_case "negative advance" `Quick test_clock_advance_negative;
          Alcotest.test_case "monotonic clock survives a backwards step" `Quick
            test_clock_mono_backwards_step;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null trace is a no-op" `Quick test_trace_null_noop;
          Alcotest.test_case "span tree structure" `Quick test_trace_tree;
          Alcotest.test_case "aggregate and render" `Quick test_trace_aggregate_render;
          Alcotest.test_case "unbalanced leave raises" `Quick test_trace_unbalanced_leave;
          Alcotest.test_case "with_span records errors" `Quick test_trace_with_span_error;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "non-finite floats and parse errors" `Quick
            test_json_nonfinite_and_errors;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental update" `Quick test_crc32_incremental;
          Alcotest.test_case "hex round trip" `Quick test_crc32_hex;
          Alcotest.test_case "bit flips and truncation detected" `Quick
            test_crc32_sensitivity;
        ] );
      ( "properties",
        qc
          [
            prop_lse_ge_max;
            prop_normalize_l1_sums_to_one;
            prop_perm_bijective;
            prop_solve_inverts;
          ] );
    ]
