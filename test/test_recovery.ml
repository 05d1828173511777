(* Crash-recovery property tests for the durable metadata store.

   The central property: recovering a crashed durable database always
   yields a state bit-for-bit equal to some prefix of the never-crashed
   run of the same operation sequence — or fails with an explicit
   corruption diagnostic.  Never a silently wrong database.

   Exercised three ways: a torn-write sweep that crashes the WAL append
   at every single byte offset of a fixed program; a deterministic
   crash at each named checkpoint-protocol step; and a 500-seed fuzzer
   mixing random programs with random fault injection. *)

module Durable = Mirror_store.Durable
module Wal = Mirror_store.Wal
module Faults = Mirror_daemon.Faults
module Mirror = Mirror_core.Mirror
module Storage = Mirror_core.Storage
module Eval = Mirror_core.Eval
module Expr = Mirror_core.Expr
module Types = Mirror_core.Types
module Prng = Mirror_util.Prng

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "mirror-recovery" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Canonical rendering of a database's complete logical state: every
   extent's name, type and contents (evaluated through the flattened
   kernel).  Prefix-consistency below is string equality of these. *)
let fingerprint st =
  Storage.extents st
  |> List.sort compare
  |> List.map (fun name ->
         let ty =
           match Storage.extent_type st name with
           | Some t -> Types.to_string t
           | None -> "?"
         in
         let contents =
           match Eval.query_value st (Expr.Extent name) with
           | Ok v -> Mirror_core.Value.to_string v
           | Error e -> "ERR " ^ e
         in
         Printf.sprintf "%s : %s = %s" name ty contents)
  |> String.concat "\n"

(* {1 Operation sequences} *)

type op = Exec of string | Checkpoint

let schema_src = "SET< TUPLE< Atomic<int>: a, SET< Atomic<int> > : s > >"

(* Deterministic random program: defines, inserts, deletes and the
   occasional explicit checkpoint.  Generated with explicit recursion
   (not [List.init]) so the PRNG draws in a fixed order. *)
let gen_ops g n =
  let defined = ref [] in
  let count = ref 0 in
  let one () =
    let roll = Prng.int g 100 in
    if !defined = [] || roll < 15 then begin
      incr count;
      let name = Printf.sprintf "T%d" !count in
      defined := name :: !defined;
      Exec (Printf.sprintf "define %s as %s;" name schema_src)
    end
    else if roll < 70 then begin
      let name = Prng.choose g (Array.of_list !defined) in
      let a = Prng.int g 50 in
      let rec draw k acc = if k = 0 then List.rev acc else draw (k - 1) (Prng.int g 20 :: acc) in
      let s =
        draw (1 + Prng.int g 3) [] |> List.map string_of_int |> String.concat ", "
      in
      Exec (Printf.sprintf "insert into %s tuple(a: %d, s: {%s});" name a s)
    end
    else if roll < 90 then begin
      let name = Prng.choose g (Array.of_list !defined) in
      Exec (Printf.sprintf "delete from %s where THIS.a = %d;" name (Prng.int g 50))
    end
    else Checkpoint
  in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (one () :: acc) in
  go n []

let apply_plain m = function
  | Exec src -> ignore (ok (Mirror.exec_program m src))
  | Checkpoint -> ()

let apply_durable t = function
  | Exec src -> ignore (ok (Mirror.exec_program (Durable.mirror t) src))
  | Checkpoint -> ok (Durable.checkpoint t)

(* Fingerprints of every prefix of [ops], from a never-crashed
   in-memory run: element [i] is the state after the first [i] ops. *)
let prefixes ops =
  let m = Mirror.create () in
  let acc = ref [ fingerprint (Mirror.storage m) ] in
  List.iter
    (fun op ->
      apply_plain m op;
      acc := fingerprint (Mirror.storage m) :: !acc)
    ops;
  List.rev !acc

let check_prefix ~what fps fp =
  if not (List.mem fp fps) then
    Alcotest.failf "%s: recovered state is not a prefix of the crash-free run:\n%s" what fp

(* Run [ops] against a fresh durable store in [dir] with faults already
   armed; returns true if the injected crash fired.  The store is
   abandoned (crash semantics) or closed cleanly accordingly. *)
let run_until_crash ~dir ~arm ops =
  match Durable.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok (t, _) ->
    arm ();
    let crashed =
      match List.iter (apply_durable t) ops with
      | () -> false
      | exception Faults.Crash _ -> true
    in
    Faults.reset_faults ();
    if crashed then Durable.abandon t else Durable.close t;
    crashed

let recover_and_check ~what ~dir fps =
  match Durable.open_ ~dir () with
  | Error e -> Alcotest.failf "%s: recovery failed: %s" what e
  | Ok (t, _) ->
    check_prefix ~what fps (fingerprint (Durable.storage t));
    (match Durable.certify t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: certification failed: %s" what e);
    Durable.close t

(* {1 Torn-write sweep} *)

(* Crash the log append at every byte offset of a small fixed program:
   whatever frame boundary, header byte or payload byte the tear lands
   on, recovery must land on an exact prefix. *)
let test_torn_sweep () =
  let ops =
    [
      Exec (Printf.sprintf "define T as %s;" schema_src);
      Exec "insert into T tuple(a: 1, s: {1, 2});";
      Exec "insert into T tuple(a: 2, s: {3});";
      Exec "delete from T where THIS.a = 1;";
    ]
  in
  let fps = prefixes ops in
  (* Total log bytes of the complete run, from a clean rehearsal. *)
  let total =
    with_temp_dir (fun dir ->
        match Durable.open_ ~dir () with
        | Error e -> Alcotest.fail e
        | Ok (t, _) ->
          List.iter (apply_durable t) ops;
          let bytes = (Durable.status t).Durable.log_bytes in
          Durable.abandon t;
          bytes)
  in
  Alcotest.(check bool) "rehearsal logged something" true (total > 0);
  for bytes = 0 to total - 1 do
    with_temp_dir (fun dir ->
        let what = Printf.sprintf "torn at byte %d/%d" bytes total in
        let crashed =
          run_until_crash ~dir ~arm:(fun () -> Faults.arm_torn_write ~bytes) ops
        in
        if not crashed then Alcotest.failf "%s: no crash fired" what;
        recover_and_check ~what ~dir fps)
  done

(* {1 Checkpoint-protocol crash points} *)

let checkpoint_points =
  [
    "checkpoint.begin";
    "checkpoint.snapshot";
    "checkpoint.rename";
    "checkpoint.meta";
    "checkpoint.commit";
    "checkpoint.gc";
  ]

(* Crash a checkpoint at each protocol step.  Every operation was
   already logged, so whichever side of the commit point the crash
   lands on, recovery must reproduce the full pre-checkpoint state. *)
let test_checkpoint_crash_points () =
  let ops =
    [
      Exec (Printf.sprintf "define T as %s;" schema_src);
      Exec "insert into T tuple(a: 7, s: {4, 9});";
      Exec "insert into T tuple(a: 8, s: {5});";
    ]
  in
  let full = List.nth (prefixes ops) (List.length ops) in
  List.iter
    (fun point ->
      with_temp_dir (fun dir ->
          match Durable.open_ ~dir () with
          | Error e -> Alcotest.fail e
          | Ok (t, _) -> (
            List.iter (apply_durable t) ops;
            Faults.arm_crash point ~after:0;
            (match Durable.checkpoint t with
            | exception Faults.Crash _ -> ()
            | Ok () -> Alcotest.failf "checkpoint did not crash at %s" point
            | Error e -> Alcotest.failf "checkpoint errored at %s instead: %s" point e);
            Faults.reset_faults ();
            Durable.abandon t;
            match Durable.open_ ~dir () with
            | Error e -> Alcotest.failf "reopen after %s: %s" point e
            | Ok (t2, _) ->
              Alcotest.(check string)
                (Printf.sprintf "crash at %s preserves the logged state" point)
                full
                (fingerprint (Durable.storage t2));
              ok (Durable.certify t2);
              Durable.close t2)))
    checkpoint_points

(* A second crash during the recovery's own re-checkpoint must not
   brick the store either: recover, crash the recovery checkpoint at
   its commit point, recover again. *)
let test_double_crash () =
  let ops =
    [
      Exec (Printf.sprintf "define T as %s;" schema_src);
      Exec "insert into T tuple(a: 3, s: {6});";
    ]
  in
  let fps = prefixes ops in
  with_temp_dir (fun dir ->
      let crashed =
        run_until_crash ~dir ~arm:(fun () -> Faults.arm_torn_write ~bytes:80) ops
      in
      Alcotest.(check bool) "first crash fired" true crashed;
      List.iter
        (fun point ->
          Faults.arm_crash point ~after:0;
          (match Durable.open_ ~dir () with
          | exception Faults.Crash _ -> ()
          | Ok (t, _) ->
            (* the tear may have landed between records, in which case
               recovery has nothing to redo and never checkpoints *)
            Durable.abandon t
          | Error e -> Alcotest.failf "double crash at %s: %s" point e);
          Faults.reset_faults ())
        checkpoint_points;
      recover_and_check ~what:"after repeated recovery crashes" ~dir fps)

(* {1 Corruption detection} *)

let wal_segments dir =
  let wal_dir = Filename.concat dir "wal" in
  Sys.readdir wal_dir |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat wal_dir)

let flip_byte path pos =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string src in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* Build a store with a populated log (abandoned, not checkpointed). *)
let build_dirty dir =
  match Durable.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok (t, _) ->
    List.iter (apply_durable t)
      [
        Exec (Printf.sprintf "define T as %s;" schema_src);
        Exec "insert into T tuple(a: 1, s: {1});";
        Exec "insert into T tuple(a: 2, s: {2});";
      ];
    Durable.abandon t

let expect_open_error ~what ~needle dir =
  match Durable.open_ ~dir () with
  | Ok _ -> Alcotest.failf "%s: damage was not detected" what
  | Error e ->
    if not (contains ~needle e) then
      Alcotest.failf "%s: diagnostic %S does not mention %S" what e needle

let test_bitflip_detected () =
  with_temp_dir (fun dir ->
      build_dirty dir;
      let seg = List.hd (wal_segments dir) in
      (* byte 12 is inside the first record's payload: checksum must trip *)
      flip_byte seg 12;
      expect_open_error ~what:"payload bit flip" ~needle:"checksum" dir)

let test_meta_corruption_detected () =
  with_temp_dir (fun dir ->
      build_dirty dir;
      flip_byte (Filename.concat dir "CHECKPOINT") 5;
      expect_open_error ~what:"checkpoint metadata flip" ~needle:"CHECKPOINT" dir)

(* Tiny segments force a roll on every append; deleting an interior
   segment leaves a gap in the LSN tiling, which must be flagged as
   corruption, not silently replayed around. *)
let test_missing_segment_detected () =
  with_temp_dir (fun dir ->
      let config =
        {
          Durable.default_config with
          Durable.wal = { Wal.segment_bytes = 32 };
        }
      in
      (match Durable.open_ ~config ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, _) ->
        List.iter (apply_durable t)
          [
            Exec (Printf.sprintf "define T as %s;" schema_src);
            Exec "insert into T tuple(a: 1, s: {1});";
            Exec "insert into T tuple(a: 2, s: {2});";
          ];
        Durable.abandon t);
      (match wal_segments dir with
      | _ :: middle :: _ :: _ -> Sys.remove middle
      | segs -> Alcotest.failf "expected >= 3 segments, got %d" (List.length segs));
      expect_open_error ~what:"missing interior segment" ~needle:"expected" dir)

(* Dropping one interior byte misaligns every later frame: the scan
   must flag damage rather than replay garbage. *)
let test_interior_truncation_detected () =
  with_temp_dir (fun dir ->
      build_dirty dir;
      let seg = List.hd (wal_segments dir) in
      let ic = open_in_bin seg in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let dropped = String.sub src 0 20 ^ String.sub src 21 (String.length src - 21) in
      let oc = open_out_bin seg in
      output_string oc dropped;
      close_out oc;
      expect_open_error ~what:"interior byte drop" ~needle:"WAL corruption" dir)

(* {1 Feedback and daemon-store records} *)

let test_feedback_and_store_ops_replayed () =
  with_temp_dir (fun dir ->
      (match Durable.open_ ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, _) ->
        List.iter (apply_durable t)
          [
            Exec (Printf.sprintf "define T as %s;" schema_src);
            Exec "insert into T tuple(a: 1, s: {1});";
          ];
        Mirror.give_feedback (Durable.mirror t) ~query:"sunset beach"
          ~judgements:[ ("img1", true); ("img2", false) ];
        Durable.store_journal t "doc" "7 \"img7\"";
        Durable.abandon t);
      match Durable.open_ ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, r) ->
        Alcotest.(check int) "all records replayed" 4 r.Durable.replayed;
        Alcotest.(check (list (pair string (list (pair string bool)))))
          "feedback replayed"
          [ ("sunset beach", [ ("img1", true); ("img2", false) ]) ]
          r.Durable.feedback;
        Alcotest.(check (list (pair string string)))
          "store ops replayed"
          [ ("doc", "7 \"img7\"") ]
          r.Durable.store_ops;
        Durable.close t)

(* The snapshot only captures Storage; feedback and daemon-store
   effects live in session side state.  Their records must survive
   checkpoint GC (via the snapshot's side-state file) — the regression
   here was: feedback, close (= checkpoint), open => empty history. *)

let feedback_history = Alcotest.(list (pair string (list (pair string bool))))
let store_op_history = Alcotest.(list (pair string string))

let test_side_state_survives_checkpoint () =
  with_temp_dir (fun dir ->
      (match Durable.open_ ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, _) ->
        List.iter (apply_durable t)
          [
            Exec (Printf.sprintf "define T as %s;" schema_src);
            Exec "insert into T tuple(a: 1, s: {1});";
          ];
        Mirror.give_feedback (Durable.mirror t) ~query:"before checkpoint"
          ~judgements:[ ("img1", true) ];
        Durable.store_journal t "doc" "1 \"img1\"";
        ok (Durable.checkpoint t);
        Mirror.give_feedback (Durable.mirror t) ~query:"after checkpoint"
          ~judgements:[ ("img2", false) ];
        Durable.close t);
      (* two reopen cycles: the history must survive each one's
         close-time checkpoint as well *)
      for cycle = 1 to 2 do
        match Durable.open_ ~dir () with
        | Error e -> Alcotest.fail e
        | Ok (t, r) ->
          Alcotest.(check int)
            (Printf.sprintf "cycle %d: clean open replays nothing" cycle)
            0 r.Durable.replayed;
          Alcotest.check feedback_history
            (Printf.sprintf "cycle %d: feedback history survives" cycle)
            [
              ("before checkpoint", [ ("img1", true) ]);
              ("after checkpoint", [ ("img2", false) ]);
            ]
            r.Durable.feedback;
          Alcotest.check store_op_history
            (Printf.sprintf "cycle %d: store-op history survives" cycle)
            [ ("doc", "1 \"img1\"") ]
            r.Durable.store_ops;
          Durable.close t
      done)

(* Whichever side of the commit point a checkpoint crash lands on, the
   feedback history must come back — from the old log, or from the new
   snapshot's side-state file. *)
let test_side_state_survives_checkpoint_crash () =
  List.iter
    (fun point ->
      with_temp_dir (fun dir ->
          (match Durable.open_ ~dir () with
          | Error e -> Alcotest.fail e
          | Ok (t, _) ->
            apply_durable t (Exec (Printf.sprintf "define T as %s;" schema_src));
            Mirror.give_feedback (Durable.mirror t) ~query:"q"
              ~judgements:[ ("img1", true) ];
            Faults.arm_crash point ~after:0;
            (match Durable.checkpoint t with
            | exception Faults.Crash _ -> ()
            | Ok () -> Alcotest.failf "checkpoint did not crash at %s" point
            | Error e -> Alcotest.failf "checkpoint errored at %s instead: %s" point e);
            Faults.reset_faults ();
            Durable.abandon t);
          match Durable.open_ ~dir () with
          | Error e -> Alcotest.failf "reopen after %s: %s" point e
          | Ok (t, r) ->
            Alcotest.check feedback_history
              (Printf.sprintf "feedback survives a crash at %s" point)
              [ ("q", [ ("img1", true) ]) ]
              r.Durable.feedback;
            Durable.close t))
    checkpoint_points

(* Auto-checkpoints GC the log mid-session; the side state must ride
   through them just like explicit ones. *)
let test_side_state_survives_auto_checkpoint () =
  with_temp_dir (fun dir ->
      let config = { Durable.default_config with Durable.checkpoint_every = 1 } in
      (match Durable.open_ ~config ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, _) ->
        Mirror.give_feedback (Durable.mirror t) ~query:"q" ~judgements:[ ("img1", true) ];
        List.iter (apply_durable t)
          [
            Exec (Printf.sprintf "define T as %s;" schema_src);
            Exec "insert into T tuple(a: 1, s: {1});";
          ];
        Alcotest.(check (option string))
          "no auto-checkpoint error" None (Durable.status t).Durable.last_error;
        Durable.abandon t);
      match Durable.open_ ~config ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, r) ->
        Alcotest.check feedback_history "feedback survives auto-checkpoints"
          [ ("q", [ ("img1", true) ]) ]
          r.Durable.feedback;
        Durable.close t)

(* {1 Commits and fsyncs}

   A commit is one record journaled outside a group, or one
   [atomically] group; each is one frame and one fsync, paid before
   the call returns.  The counters must survive the checkpoint-time
   writer swap (the durable store accumulates retired writers'
   stats). *)
let test_group_commit_stats () =
  with_temp_dir (fun dir ->
      let t, _ = ok (Durable.open_ ~dir ()) in
      let s0 = Durable.status t in
      apply_durable t (Exec (Printf.sprintf "define T as %s;" schema_src));
      for i = 1 to 20 do
        apply_durable t (Exec (Printf.sprintf "insert into T tuple(a: %d, s: {%d});" i i))
      done;
      let s = Durable.status t in
      Alcotest.(check int) "N single-record commits: N appends" 21
        (s.Durable.wal_appends - s0.Durable.wal_appends);
      Alcotest.(check int) "N single-record commits: N fsyncs" 21
        (s.Durable.wal_fsyncs - s0.Durable.wal_fsyncs);
      Durable.atomically t (fun () ->
          for i = 21 to 28 do
            apply_durable t (Exec (Printf.sprintf "insert into T tuple(a: %d, s: {%d});" i i))
          done);
      let s' = Durable.status t in
      Alcotest.(check int) "a group of N records is one append" 1
        (s'.Durable.wal_appends - s.Durable.wal_appends);
      Alcotest.(check int) "a group of N records is one fsync" 1
        (s'.Durable.wal_fsyncs - s.Durable.wal_fsyncs);
      Durable.atomically t ignore;
      Alcotest.(check int) "an empty group costs nothing" s'.Durable.wal_fsyncs
        (Durable.status t).Durable.wal_fsyncs;
      ok (Durable.checkpoint t);
      let s'' = Durable.status t in
      Alcotest.(check int) "appends survive the checkpoint writer swap"
        s'.Durable.wal_appends s''.Durable.wal_appends;
      Alcotest.(check bool) "fsyncs accumulate across the swap" true
        (s''.Durable.wal_fsyncs >= s'.Durable.wal_fsyncs);
      Durable.close t;
      (* the group replays as a whole *)
      let t, r = ok (Durable.open_ ~dir ()) in
      Alcotest.(check int) "clean reopen replays nothing" 0 r.Durable.replayed;
      (match Eval.query_value (Durable.storage t) (Expr.Extent "T") with
      | Ok (Mirror_core.Value.VSet rows) ->
        Alcotest.(check int) "every grouped insert recovered" 28 (List.length rows)
      | Ok _ | Error _ -> Alcotest.fail "cannot read T back");
      Durable.close t)

(* {1 The serving tier's group commit} *)

module Serve = Mirror_serve.Serve

let serve_writes d srcs =
  let ok_serve r = ok (Result.map_error Serve.error_to_string r) in
  let sv = Serve.local ~durable:d (Durable.mirror d) in
  let s = ok_serve (Serve.open_session sv) in
  List.iter (fun src -> ignore (ok_serve (Serve.submit sv s (Serve.Exec src)) : int)) srcs;
  Serve.drain sv;
  List.iter
    (fun (_, reply) ->
      match reply with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "write refused: %s" (Serve.error_to_string e))
    (Serve.replies s)

(* A Serve batch of k writes (each a delete and an insert, so 2k
   records) costs one frame and one fsync. *)
let test_serve_batch_one_fsync () =
  with_temp_dir (fun dir ->
      let d, _ = ok (Durable.open_ ~dir ()) in
      apply_durable d (Exec (Printf.sprintf "define T as %s;" schema_src));
      let s0 = Durable.status d in
      let k = 5 in
      serve_writes d
        (List.init k (fun i ->
             Printf.sprintf "delete from T where THIS.a = %d; insert into T tuple(a: %d, s: {%d});"
               i i i));
      let s1 = Durable.status d in
      Alcotest.(check int) "one append per batch" 1
        (s1.Durable.wal_appends - s0.Durable.wal_appends);
      Alcotest.(check int) "one fsync per batch" 1
        (s1.Durable.wal_fsyncs - s0.Durable.wal_fsyncs);
      Durable.close d)

(* Tear the Serve batch's frame — in its header, at the header/payload
   boundary, every 32 bytes through the payload, one byte short:
   recovery holds none of the batch and every earlier acknowledged
   write. *)
let test_serve_batch_torn () =
  let define = Printf.sprintf "define T as %s;" schema_src in
  let acked = [ "insert into T tuple(a: 1, s: {1});"; "insert into T tuple(a: 2, s: {2});" ] in
  let batch = [ "insert into T tuple(a: 3, s: {3});"; "delete from T where THIS.a = 1;" ] in
  let expected =
    let m = Mirror.create () in
    List.iter (fun src -> apply_plain m (Exec src)) (define :: acked);
    fingerprint (Mirror.storage m)
  in
  let setup dir =
    let d, _ = ok (Durable.open_ ~dir ()) in
    apply_durable d (Exec define);
    serve_writes d acked;
    d
  in
  let frame_bytes =
    with_temp_dir (fun dir ->
        let d = setup dir in
        let b0 = (Durable.status d).Durable.log_bytes in
        serve_writes d batch;
        let b1 = (Durable.status d).Durable.log_bytes in
        Durable.abandon d;
        b1 - b0)
  in
  List.iter
    (fun bytes ->
      with_temp_dir (fun dir ->
          let d = setup dir in
          Faults.arm_torn_write ~bytes;
          (match serve_writes d batch with
          | () -> Alcotest.failf "torn at byte %d: no crash fired" bytes
          | exception Faults.Crash _ -> ());
          Faults.reset_faults ();
          Durable.abandon d;
          let d, _ = ok (Durable.open_ ~dir ()) in
          Alcotest.(check string)
            (Printf.sprintf "torn at byte %d/%d: none of the batch, all before it" bytes
               frame_bytes)
            expected
            (fingerprint (Durable.storage d));
          Durable.close d))
    (List.sort_uniq compare
       ((frame_bytes - 1) :: 4 :: 8 :: List.init ((frame_bytes / 32) + 1) (fun i -> i * 32)))

(* {1 The 500-seed crash fuzzer} *)

let test_crash_fuzz () =
  for seed = 1 to 500 do
    let g = Prng.create seed in
    let ops = gen_ops g (3 + Prng.int g 10) in
    let fps = prefixes ops in
    let arm () =
      match Prng.int g 3 with
      | 0 -> Faults.arm_torn_write ~bytes:(Prng.int g 2000)
      | 1 ->
        Faults.arm_crash
          (Prng.choose g (Array.of_list checkpoint_points))
          ~after:(Prng.int g 2)
      | _ -> ()
    in
    with_temp_dir (fun dir ->
        let what = Printf.sprintf "seed %d" seed in
        ignore (run_until_crash ~dir ~arm ops : bool);
        recover_and_check ~what ~dir fps)
  done

(* {1 Delivery-journal records}

   The orchestrator journals its delivery state machine through the
   same WAL; dead-letter causes carry arbitrary exception text
   (newlines, backslashes, the line protocol's escape characters), so
   the codec must round-trip every byte, and a torn tail must degrade
   to a clean prefix of the delivery history, exactly like store
   records. *)

module Record = Mirror_store.Record
module Bus = Mirror_daemon.Bus
module Deadletter = Mirror_daemon.Deadletter
module Dictionary = Mirror_daemon.Dictionary

let nasty_texts =
  [
    "plain";
    "";
    "with\nnewline\nand more";
    "back\\slash \\n literal";
    "spaces and\ttabs";
    "nul\000byte";
    String.make 300 '\xff';
    "mixed \\s escape \n\\\\ soup ";
  ]

let fab_route ?(attempts = 0) ~seq () =
  {
    Record.daemon = "thesaurus";
    seq;
    topic = "annotation.indexed";
    subject = 42;
    payload = [ ("text", "a\nb\\c d"); ("", "empty key above") ];
    attempts;
  }

let test_fab_record_round_trips () =
  let causes =
    List.concat_map
      (fun text -> [ Deadletter.Failed text; Deadletter.Expired text ])
      nasty_texts
    @ [ Deadletter.Overflow ]
  in
  let records =
    List.concat
      [
        List.mapi
          (fun i cause ->
            Record.Fab_dead { daemon = "d\nod"; seq = i; cause; at = 1786300000.5 })
          causes;
        [
          Record.Fab_route (fab_route ~seq:7 ~attempts:3 ());
          Record.Fab_done { daemon = "thesaurus"; seq = 7 };
          Record.Fab_redeliver { daemon = "thesaurus"; seq = 7 };
          (* settlement batches nest arbitrary records *)
          Record.Fab_atomic
            [
              Record.Store_op { tag = "text"; payload = "12 nasty\n\\payload" };
              Record.Fab_route (fab_route ~seq:9 ());
              Record.Fab_done { daemon = "thesaurus"; seq = 8 };
            ];
          Record.Fab_atomic [];
        ];
        List.concat_map
          (fun text ->
            [
              Record.Dict_op
                (Dictionary.Registered { name = text; schema = text; owner = "app\n" });
              Record.Dict_op (Dictionary.Evolved { name = "Lib"; schema = text; by = text });
            ])
          nasty_texts;
      ]
  in
  List.iter
    (fun r ->
      match Record.decode (Record.encode r) with
      | Ok r' ->
        if r' <> r then
          Alcotest.failf "codec round trip changed %s" (Record.describe r)
      | Error e -> Alcotest.failf "codec rejects %s: %s" (Record.describe r) e)
    records;
  (* decoding junk never raises *)
  List.iter
    (fun s ->
      match Record.decode s with Ok _ | Error _ -> ())
    ("" :: "A" :: "Dgarbage" :: List.map Record.encode records
    |> List.map (fun s -> if s = "" then s else String.sub s 0 (String.length s - 1)))

(* Truncate the journal's live segment at every byte offset: recovery
   must always land on a prefix of the delivery history — both letters
   pending, one, or none — and never report a different state or an
   error. *)
let test_fab_dead_letter_torn_tail () =
  with_temp_dir @@ fun dir ->
  let text = "Failure(\"injected\nfault \\with escapes\")" in
  let d, _ = ok (Durable.open_ ~dir ()) in
  let j = Durable.journal d in
  let delivery (fr : Record.fab_route) =
    {
      Bus.seq = fr.Record.seq;
      message =
        { Bus.topic = fr.Record.topic; subject = fr.Record.subject; payload = fr.Record.payload };
      attempts = fr.Record.attempts;
      deadline = None;
    }
  in
  let first = delivery (fab_route ~seq:1 ()) in
  j.Mirror_daemon.Orchestrator.routed "thesaurus" first;
  j.Mirror_daemon.Orchestrator.routed "autoclass" (delivery (fab_route ~seq:2 ()));
  j.Mirror_daemon.Orchestrator.dead
    {
      Deadletter.daemon = "thesaurus";
      delivery = first;
      cause = Deadletter.Failed text;
      at = 1786300001.25;
    };
  Durable.abandon d;
  let wal_dir = Filename.concat dir "wal" in
  let seg =
    match Array.to_list (Sys.readdir wal_dir) |> List.sort compare |> List.rev with
    | last :: _ -> Filename.concat wal_dir last
    | [] -> Alcotest.fail "no wal segment"
  in
  let ic = open_in_bin seg in
  let len = in_channel_length ic in
  let pristine = really_input_string ic len in
  close_in ic;
  let expected =
    [
      ([], []);
      ([ ("thesaurus", 1) ], []);
      ([ ("autoclass", 2); ("thesaurus", 1) ], []);
      ([ ("autoclass", 2) ], [ ("thesaurus", 1, "failed") ]);
    ]
  in
  let seen_full = ref false in
  for cut = 0 to len do
    let oc = open_out_bin seg in
    output_string oc (String.sub pristine 0 cut);
    close_out oc;
    match Durable.deliveries ~dir with
    | Error e -> Alcotest.failf "torn at byte %d/%d: %s" cut len e
    | Ok { Durable.pending; dead_letters } ->
      let keys =
        ( List.map (fun (r : Record.fab_route) -> (r.Record.daemon, r.Record.seq)) pending
          |> List.sort compare,
          List.map
            (fun ((r : Record.fab_route), c, _) ->
              (r.Record.daemon, r.Record.seq, Deadletter.cause_tag c))
            dead_letters )
      in
      if not (List.mem keys expected) then
        Alcotest.failf "torn at byte %d/%d recovers a non-prefix state" cut len;
      if cut = len then begin
        seen_full := true;
        if keys <> List.nth expected 3 then
          Alcotest.failf "untorn journal lost records";
        (* the nasty cause text survived the WAL byte-for-byte *)
        match dead_letters with
        | [ (_, Deadletter.Failed text', at) ] ->
          Alcotest.(check string) "cause text intact" text text';
          Alcotest.(check (float 1e-9)) "timestamp intact" 1786300001.25 at
        | _ -> Alcotest.fail "wrong dead letter shape"
      end
  done;
  assert !seen_full

(* Reopening after [insert]/[delete_where] redoes a WAL suffix on top of
   the snapshot; every extent's logical rows, CONTREP bags and LIST
   order included, must come back equal and in order. *)
let test_rows_survive_replayed_suffix () =
  with_temp_dir (fun dir ->
      let module Value = Mirror_core.Value in
      let contrep = Types.Xt ("CONTREP", [ Types.Atomic Mirror_bat.Atom.TStr ]) in
      let ty =
        Types.Set
          (Types.Tuple
             [
               ("k", Types.Atomic Mirror_bat.Atom.TInt);
               ("c", contrep);
               ("xs", Types.Xt ("LIST", [ Types.Atomic Mirror_bat.Atom.TInt ]));
             ])
      in
      let row k bag xs =
        Value.Tup
          [
            ("k", Value.int k);
            ("c", Value.contrep bag);
            ("xs", Value.vlist (List.map Value.int xs));
          ]
      in
      let t, _ = ok (Durable.open_ ~dir ()) in
      let st = Durable.storage t in
      ok (Storage.define st ~name:"T" ty);
      ignore (ok (Storage.load st ~name:"T" [ row 1 [ ("cat", 2.0) ] [ 3; 1 ]; row 2 [] [] ]));
      ok (Durable.checkpoint t);
      ignore (ok (Storage.insert st ~name:"T" [ row 3 [ ("dog", 1.0); ("cat", 0.5) ] [ 2; 2; 7 ] ]));
      ignore (ok (Storage.delete_where st ~name:"T" (fun v -> Value.field_exn v "k" = Value.int 1)));
      let before = List.map (fun n -> (n, Storage.extent_rows st n)) (Storage.extents st) in
      Durable.abandon t;
      let t2, r = ok (Durable.open_ ~dir ()) in
      Alcotest.(check bool) "a WAL suffix was replayed" true (r.Durable.replayed > 0);
      let st2 = Durable.storage t2 in
      let value = Alcotest.testable Value.pp Value.equal in
      List.iter
        (fun (n, rows) ->
          Alcotest.(check (option (list value))) ("rows of " ^ n) rows (Storage.extent_rows st2 n))
        before;
      Durable.close t2)

let () =
  Alcotest.run "recovery"
    [
      ( "prefix-consistency",
        [
          Alcotest.test_case "torn write at every byte offset" `Quick test_torn_sweep;
          Alcotest.test_case "crash at every checkpoint step" `Quick
            test_checkpoint_crash_points;
          Alcotest.test_case "crash during recovery's checkpoint" `Quick
            test_double_crash;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "payload bit flip detected" `Quick test_bitflip_detected;
          Alcotest.test_case "metadata corruption detected" `Quick
            test_meta_corruption_detected;
          Alcotest.test_case "missing interior segment detected" `Quick
            test_missing_segment_detected;
          Alcotest.test_case "interior truncation detected" `Quick
            test_interior_truncation_detected;
        ] );
      ( "replay",
        [
          Alcotest.test_case "feedback and store ops surface" `Quick
            test_feedback_and_store_ops_replayed;
          Alcotest.test_case "side state survives checkpoint + reopen" `Quick
            test_side_state_survives_checkpoint;
          Alcotest.test_case "side state survives checkpoint crashes" `Quick
            test_side_state_survives_checkpoint_crash;
          Alcotest.test_case "side state survives auto-checkpoints" `Quick
            test_side_state_survives_auto_checkpoint;
          Alcotest.test_case "rows survive a replayed WAL suffix" `Quick
            test_rows_survive_replayed_suffix;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "batching stats observable" `Quick test_group_commit_stats;
          Alcotest.test_case "a serve batch is one fsync" `Quick test_serve_batch_one_fsync;
          Alcotest.test_case "a torn serve batch is all or nothing" `Quick
            test_serve_batch_torn;
        ] );
      ( "fabric-journal",
        [
          Alcotest.test_case "fab records round-trip nasty bytes" `Quick
            test_fab_record_round_trips;
          Alcotest.test_case "dead letter survives a torn tail at every offset"
            `Quick test_fab_dead_letter_torn_tail;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "500-seed crash fuzzer" `Slow test_crash_fuzz ] );
    ]
