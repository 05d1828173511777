(* The parallel-kernel correctness battery.

   The morsel scheduler's contract is that parallel execution is
   invisible: for any plan the Effcheck verdict licenses, running under
   a domain pool of any size with any morsel size produces a result
   [Bat.equal] (order- and bit-sensitive) to the sequential kernel's.
   This suite attacks that contract from four sides:

   - differential fuzzing: seeded random MIL plans (the shared
     {!Milgen} generator) executed sequentially and under pools of 1, 2
     and 4 domains with randomized morsel sizes — 120 plans per domain
     count in the default test run, 500 when MIRROR_PARALLEL_FULL is
     set (the @bench-smoke alias);
   - the unsafe-operator ladder: a deliberately misbehaving foreign
     operator (undeclared in-place write) must be flagged by Effcheck,
     refused by the scheduler (its dispatch sees no current pool), and
     caught by the runtime effect sanitizer when its declaration lies;
   - merge-order units: each parallel aggregate merged across every
     domain count and pathological morsel size must equal the
     sequential fold, including float min/max with NaN and signed
     zeros, and the mixed int/float Calc2 regression from PR 3;
   - morsel edge cases: empty input, single row, morsel size larger
     than the BAT. *)

module Prng = Mirror_util.Prng
module Trace = Mirror_util.Trace
module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil
module Milprop = Mirror_bat.Milprop
module Milcheck = Mirror_bat.Milcheck
module Effcheck = Mirror_bat.Effcheck
module Parkernel = Mirror_bat.Parkernel

let full = Sys.getenv_opt "MIRROR_PARALLEL_FULL" <> None
let plans_to_generate = if full then 500 else 120
let domain_counts = [ 1; 2; 4 ]
let morsel_sizes = [| 1; 3; 16; 64; 1000 |]

let failf plan fmt =
  Printf.ksprintf
    (fun msg -> Alcotest.failf "%s\nplan:\n%s" msg (Mil.to_string plan))
    fmt

(* The Effcheck verdict over a one-plan bundle; [foreign] declares
   operators. *)
let verdict ?foreign catalog plan =
  Effcheck.verdict (Milcheck.analyze (Milcheck.env ?foreign catalog) [ plan ])

(* {1 Differential fuzz: parallel == sequential, bit for bit} *)

let test_differential () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pools = List.map (fun d -> (d, Parkernel.create d)) domain_counts in
  let g = Prng.create 20260809 in
  let pool = ref (Milgen.seed_pool catalog Milgen.fixture_names) in
  let par_execs = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      List.iter (fun (_, p) -> Parkernel.shutdown p) pools)
    (fun () ->
      for _ = 1 to plans_to_generate do
        let plan, hty, tty = Milgen.generate g !pool in
        let expected = Mil.exec (Mil.session catalog) plan in
        let safe = (verdict catalog plan).Effcheck.safe in
        if not (safe plan) then
          failf plan "Effcheck refused a kernel-only plan as parallel-unsafe";
        List.iter
          (fun (d, p) ->
            Parkernel.set_morsel_size (Prng.choose g morsel_sizes);
            let s = Mil.session ~par:{ Mil.pool = p; safe; morsel = (fun _ -> None) } catalog in
            let got = Mil.exec s plan in
            if not (Bat.equal expected got) then
              failf plan "parallel result differs at %d domains (morsel %d)" d
                (Parkernel.morsel_size ());
            par_execs := !par_execs + (Mil.stats s).Mil.par_ops)
          pools;
        if Bat.count expected <= 1000 then
          pool := { Milgen.plan; hty; tty } :: !pool
      done;
      Alcotest.(check bool)
        (Printf.sprintf "the pools actually ran operators in parallel (%d par ops)"
           !par_execs)
        true (!par_execs > 0))

(* {1 The unsafe-operator ladder}

   A test-only foreign operator that mutates its input column in place
   and returns the very same BAT — the two sins (undeclared write,
   undeclared aliasing) the effect layer exists to catch. *)

let clobber_name = "test.clobber"

let clobber_dispatch saw_pool ~name ~args ~meta:_ =
  match (name, args) with
  | n, [ b ] when n = clobber_name ->
    saw_pool := Parkernel.current () <> None;
    (match Bat.tail b with
    | Column.I a when Array.length a > 0 -> a.(0) <- a.(0) + 1
    | _ -> ());
    b
  | _ -> Alcotest.failf "unexpected foreign %s" name

(* [clobber_name] declared (falsely) pure *)
let pure_clobber name =
  if name = clobber_name then
    Some
      {
        Milcheck.f_arity = 1;
        f_meta_min = 0;
        f_result = Milprop.unknown;
        f_pure = true;
        f_shares = false;
        f_writes = false;
        f_rows = None;
      }
  else None

let test_effcheck_flags_unsafe () =
  let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
  let v = verdict (Milgen.fixture ()) plan in
  Alcotest.(check bool) "undeclared foreign raises a hazard" true (v.Effcheck.hazards <> []);
  Alcotest.(check bool) "verdict refuses the node" false (v.Effcheck.safe plan);
  (* the taint spreads over the whole partition: the argument scan the
     clobber can reach is refused too *)
  Alcotest.(check bool) "argument node shares the unsafe partition" false
    (v.Effcheck.safe (Mil.Get "ints"))

let test_scheduler_refuses_unsafe () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
      let saw_pool = ref true in
      (* undeclared: the verdict marks the node unsafe, so the executor
         must dispatch it outside the pool scope *)
      let safe = (verdict catalog plan).Effcheck.safe in
      let s =
        Mil.session ~foreign:(clobber_dispatch saw_pool) ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog
      in
      ignore (Mil.exec s plan);
      Alcotest.(check bool) "unsafe foreign ran without a pool" false !saw_pool;
      Alcotest.(check int) "no operator went parallel" 0 (Mil.stats s).Mil.par_ops;
      (* the same operator with a (false) pure declaration is licensed:
         the scheduler exposes the pool to its dispatch *)
      let safe = (verdict ~foreign:pure_clobber catalog plan).Effcheck.safe in
      let s2 =
        Mil.session ~foreign:(clobber_dispatch saw_pool) ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog
      in
      ignore (Mil.exec s2 plan);
      Alcotest.(check bool) "declared-pure foreign sees the pool" true !saw_pool)

let test_sanitizer_catches_forced () =
  (* force the operator through by lying: declare it pure, then let the
     runtime sanitizer compare observed behaviour against the
     declaration *)
  let catalog = Milgen.fixture () in
  let saw_pool = ref false in
  let s = Mil.session ~foreign:(clobber_dispatch saw_pool) catalog in
  let san = Effcheck.sanitizer (Milcheck.env ~foreign:pure_clobber catalog) s in
  let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
  match Effcheck.exec san plan with
  | exception Effcheck.Violation _ -> ()
  | _ -> (
    (* aliasing slipped by (zero-length exemptions etc.): the in-place
       write must still be caught by the final fingerprint pass *)
    match Effcheck.finish san with
    | exception Effcheck.Violation _ -> ()
    | () -> Alcotest.fail "sanitizer accepted an undeclared in-place write")

(* {1 Merge-order units: aggregates across domain counts} *)

let ints_bat n =
  Bat.make
    (Column.O (Array.init n (fun i -> i mod 7)))
    (Column.I (Array.init n (fun i -> (i * 31) mod 113 - 50)))

let flts_bat n =
  Bat.make
    (Column.O (Array.init n (fun i -> i mod 7)))
    (Column.F (Array.init n (fun i -> Float.of_int ((i * 17) mod 97 - 48) /. 8.0)))

let check_group pool label aggr b =
  let expected = Bat.group_aggr aggr b in
  match Parkernel.group_aggr pool aggr b with
  | None -> Alcotest.failf "%s: no parallel path" label
  | Some (got, _) ->
    if not (Bat.equal expected got) then Alcotest.failf "%s: group merge differs" label

let check_aggr_all pool label aggr b =
  let expected = Bat.aggr_all aggr b in
  match Parkernel.aggr_all pool aggr b with
  | None -> Alcotest.failf "%s: no parallel path" label
  | Some (got, _) ->
    if not (Atom.equal expected got) then
      Alcotest.failf "%s: parallel fold differs (seq %s, par %s)" label
        (Atom.to_string expected) (Atom.to_string got)

let test_merge_order () =
  Parkernel.set_min_rows 0;
  let pools = List.map (fun d -> (d, Parkernel.create d)) domain_counts in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      List.iter (fun (_, p) -> Parkernel.shutdown p) pools)
    (fun () ->
      let n = 200 in
      let bi = ints_bat n and bf = flts_bat n in
      List.iter
        (fun (d, pool) ->
          List.iter
            (fun msz ->
              Parkernel.set_morsel_size msz;
              let tag op = Printf.sprintf "%s @%dd/m%d" op d msz in
              check_group pool (tag "group count") Bat.Count bi;
              check_group pool (tag "group sum int") Bat.Sum bi;
              check_group pool (tag "group min int") Bat.Min bi;
              check_group pool (tag "group max int") Bat.Max bi;
              check_group pool (tag "group min flt") Bat.Min bf;
              check_group pool (tag "group max flt") Bat.Max bf;
              check_aggr_all pool (tag "all sum int") Bat.Sum bi;
              check_aggr_all pool (tag "all min int") Bat.Min bi;
              check_aggr_all pool (tag "all max int") Bat.Max bi;
              check_aggr_all pool (tag "all prod int") Bat.Prod
                (Bat.make (Bat.head bi) (Column.I (Array.init n (fun i -> (i mod 3) - 1))));
              check_aggr_all pool (tag "all min flt") Bat.Min bf;
              check_aggr_all pool (tag "all max flt") Bat.Max bf)
            [ 1; 7; 1000 ])
        pools;
      (* float sums are non-associative: the kernel must refuse to
         parallelize them rather than produce rounding-dependent bits *)
      let _, pool4 = List.nth pools 2 in
      Alcotest.(check bool) "float group sum stays sequential" true
        (Parkernel.group_aggr pool4 Bat.Sum bf = None);
      Alcotest.(check bool) "float group avg stays sequential" true
        (Parkernel.group_aggr pool4 Bat.Avg bf = None);
      Alcotest.(check bool) "float fold sum stays sequential" true
        (Parkernel.aggr_all pool4 Bat.Sum bf = None);
      Alcotest.(check bool) "float fold avg stays sequential" true
        (Parkernel.aggr_all pool4 Bat.Avg bf = None))

let test_float_specials () =
  Parkernel.set_min_rows 0;
  let pool = Parkernel.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      Parkernel.shutdown pool)
    (fun () ->
      Parkernel.set_morsel_size 2;
      let specials =
        Bat.make
          (Column.O (Array.init 8 (fun i -> i mod 2)))
          (Column.F [| 0.0; -0.0; Float.nan; 1.5; Float.infinity; -3.25; Float.nan; 0.5 |])
      in
      check_group pool "NaN/zero group min" Bat.Min specials;
      check_group pool "NaN/zero group max" Bat.Max specials;
      check_aggr_all pool "NaN/zero fold min" Bat.Min specials;
      check_aggr_all pool "NaN/zero fold max" Bat.Max specials)

(* the PR 3 regression: Calc2 MinOp over an int and a float column
   promotes to float; the parallel kernel has no mixed-type fast path
   and must fall back to the sequential operator, not misclassify *)
let test_mixed_calc2 () =
  Parkernel.set_min_rows 0;
  let catalog = Catalog.create () in
  let n = 64 in
  Catalog.put catalog "i"
    (Bat.make (Column.O (Array.init n (fun i -> i))) (Column.I (Array.init n (fun i -> i - 30))));
  Catalog.put catalog "f"
    (Bat.make
       (Column.O (Array.init n (fun i -> i)))
       (Column.F (Array.init n (fun i -> Float.of_int (40 - i) /. 4.0))));
  let pool = Parkernel.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.Calc2 (Bat.MinOp, Mil.Get "i", Mil.Get "f") in
      let expected = Mil.exec (Mil.session catalog) plan in
      let safe = (verdict catalog plan).Effcheck.safe in
      let got = Mil.exec (Mil.session ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog) plan in
      Alcotest.(check bool) "mixed int/float Calc2 matches sequential" true
        (Bat.equal expected got))

(* {1 Morsel edge cases} *)

let test_morsel_edges () =
  Parkernel.set_min_rows 0;
  let pool = Parkernel.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      Parkernel.shutdown pool)
    (fun () ->
      let check label b =
        let expected = Bat.select_cmp b Bat.Gt (Atom.Int 0) in
        (match Parkernel.select_cmp pool b Bat.Gt (Atom.Int 0) with
        | None -> Alcotest.failf "%s: no parallel scan path" label
        | Some (got, _) ->
          Alcotest.(check bool) (label ^ ": scan") true (Bat.equal expected got));
        let eg = Bat.group_aggr Bat.Sum b in
        match Parkernel.group_aggr pool Bat.Sum b with
        | None -> Alcotest.failf "%s: no parallel group path" label
        | Some (got, _) ->
          Alcotest.(check bool) (label ^ ": group") true (Bat.equal eg got)
      in
      let bat_of n =
        Bat.make
          (Column.O (Array.init n (fun i -> i mod 3)))
          (Column.I (Array.init n (fun i -> i - (n / 2))))
      in
      Parkernel.set_morsel_size 4;
      check "empty BAT" (bat_of 0);
      check "single row" (bat_of 1);
      Parkernel.set_morsel_size 1000;
      check "morsel larger than BAT" (bat_of 10);
      (* empty fold keeps its sequential contract: the parallel kernel
         declines and Bat.aggr_all raises/neutralizes as documented *)
      Alcotest.(check bool) "empty fold declined" true
        (Parkernel.aggr_all pool Bat.Sum (bat_of 0) = None))

(* {1 Observability: stats and trace attributes} *)

let test_stats_and_trace () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.SelectCmp (Mil.Get "ints", Bat.Gt, Atom.Int 5) in
      let safe = (verdict catalog plan).Effcheck.safe in
      let tr = Trace.create () in
      let s = Mil.session ~trace:tr ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog in
      ignore (Mil.exec s plan);
      let st = Mil.stats s in
      Alcotest.(check bool) "par_ops counted" true (st.Mil.par_ops > 0);
      Alcotest.(check bool) "par_morsels counted" true (st.Mil.par_morsels > 0);
      let has_par_attr = ref false in
      (match Trace.root tr with
      | None -> Alcotest.fail "no span recorded"
      | Some sp ->
        Trace.fold
          (fun () (s : Trace.span) ->
            if List.mem_assoc "par" s.Trace.attrs then has_par_attr := true)
          () sp);
      Alcotest.(check bool) "span carries the par attribute" true !has_par_attr;
      let t = Parkernel.totals pool in
      Alcotest.(check bool) "pool totals accumulated" true
        (t.Parkernel.t_jobs > 0 && t.Parkernel.t_morsels > 0))

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random plans at 1/2/4 domains, bitwise equal"
               plans_to_generate)
            `Slow test_differential;
        ] );
      ( "unsafe-operator",
        [
          Alcotest.test_case "Effcheck flags the undeclared writer" `Quick
            test_effcheck_flags_unsafe;
          Alcotest.test_case "scheduler refuses the unsafe partition" `Quick
            test_scheduler_refuses_unsafe;
          Alcotest.test_case "sanitizer catches it when forced through" `Quick
            test_sanitizer_catches_forced;
        ] );
      ( "merge-order",
        [
          Alcotest.test_case "aggregates are domain-count independent" `Quick
            test_merge_order;
          Alcotest.test_case "float NaN and signed zeros" `Quick test_float_specials;
          Alcotest.test_case "mixed int/float Calc2 falls back" `Quick test_mixed_calc2;
        ] );
      ( "morsels",
        [
          Alcotest.test_case "empty, single-row and oversized morsels" `Quick
            test_morsel_edges;
          Alcotest.test_case "stats and trace attributes" `Quick test_stats_and_trace;
        ] );
    ]
