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
module Record = Mirror_store.Record
module Snapshot = Mirror_store.Snapshot
module Faults = Mirror_daemon.Faults
module Store = Mirror_daemon.Store
module Mirror = Mirror_core.Mirror
module Storage = Mirror_core.Storage
module Eval = Mirror_core.Eval
module Expr = Mirror_core.Expr
module Types = Mirror_core.Types
module Value = Mirror_core.Value
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

(* The row-level records a store's log holds, as (inserts, deletes):
   read before recovery, which folds the log into a checkpoint. *)
let row_records dir =
  let ins = ref 0 and del = ref 0 in
  let rec count = function
    | Record.Insert _ -> incr ins
    | Record.Delete _ -> incr del
    | Record.Fab_atomic rs -> List.iter count rs
    | _ -> ()
  in
  let f _ payload = match Record.decode payload with Ok r -> count r | Error _ -> () in
  let dir = Filename.concat dir "wal" in
  (match Wal.segments ~dir with
  | (from_lsn, _) :: _ -> ignore (ok (Wal.replay ~dir ~from_lsn ~f))
  | [] -> ());
  (!ins, !del)

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
      Exec "insert into T tuple(a: 3, s: {6});";
      Exec "insert into T tuple(a: 4, s: {4, 5});";
      (* two rows, not adjacent: positions 0 and 2 *)
      Exec "delete from T where THIS.a <> 3;";
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
          Alcotest.(check (pair int int)) "the log's inserts and deletes" (4, 2) (row_records dir);
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

(* One-byte segments force a roll on every append; deleting an interior
   segment leaves a gap in the LSN tiling, which must be flagged as
   corruption, not silently replayed around. *)
let test_missing_segment_detected () =
  with_temp_dir (fun dir ->
      let config =
        {
          Durable.default_config with
          Durable.wal = { Wal.segment_bytes = 1 };
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

let store_op_history =
  let describe op = Mirror_store.Record.describe (Mirror_store.Record.Store_op op) in
  Alcotest.testable
    (fun ppf ops -> Format.pp_print_string ppf (String.concat "; " (List.map describe ops)))
    ( = )

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
        Durable.store_journal t (Store.O_doc (7, "img7"));
        Durable.abandon t);
      match Durable.open_ ~dir () with
      | Error e -> Alcotest.fail e
      | Ok (t, r) ->
        Alcotest.(check int) "all records replayed" 4 r.Durable.replayed;
        Alcotest.(check (list (pair string (list (pair string bool)))))
          "feedback replayed"
          [ ("sunset beach", [ ("img1", true); ("img2", false) ]) ]
          r.Durable.feedback;
        Alcotest.check store_op_history "store ops replayed"
          [ Store.O_doc (7, "img7") ]
          r.Durable.store_ops;
        Durable.close t)

(* Feedback and daemon-store effects live in session side state,
   outside Storage.  Their records must survive checkpoint GC (the
   snapshot carries them after the extents) — the regression
   here was: feedback, close (= checkpoint), open => empty history. *)

let feedback_history = Alcotest.(list (pair string (list (pair string bool))))

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
        Durable.store_journal t (Store.O_doc (1, "img1"));
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
            [ Store.O_doc (1, "img1") ]
            r.Durable.store_ops;
          Durable.close t
      done)

(* Whichever side of the commit point a checkpoint crash lands on, the
   feedback history must come back — from the old log, or from the new
   snapshot's side records. *)
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
  let crashes = ref 0 and inserts = ref 0 and deletes = ref 0 in
  for seed = 1 to 500 do
    let g = Prng.create seed in
    let ops = gen_ops g (3 + Prng.int g 10) in
    let fps = prefixes ops in
    let arm () =
      match Prng.int g 3 with
      (* a program's log is a few hundred bytes: row-level records are
         the size of their statement *)
      | 0 -> Faults.arm_torn_write ~bytes:(Prng.int g 300)
      | 1 ->
        Faults.arm_crash
          (Prng.choose g (Array.of_list checkpoint_points))
          ~after:(Prng.int g 2)
      | _ -> ()
    in
    with_temp_dir (fun dir ->
        let what = Printf.sprintf "seed %d" seed in
        if run_until_crash ~dir ~arm ops then incr crashes;
        let ins, del = row_records dir in
        inserts := !inserts + ins;
        deletes := !deletes + del;
        recover_and_check ~what ~dir fps)
  done;
  (* the crashed logs held row-level records for recovery to redo *)
  if !crashes < 150 || !inserts < 100 || !deletes < 40 then
    Alcotest.failf "%d crashes left %d inserts and %d deletes in the logs" !crashes !inserts
      !deletes

(* {1 Delivery-journal records}

   The orchestrator journals its delivery state machine through the
   same WAL; dead-letter causes carry arbitrary exception text
   (newlines, backslashes, the line protocol's escape characters), so
   the codec must round-trip every byte, and a torn tail must degrade
   to a clean prefix of the delivery history, exactly like store
   records. *)

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
              Record.Store_op (Store.O_text (12, [ ("nasty\n\\payload", 1.5) ]));
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

(* {1 Daemon-store records}

   The daemon metadata store journals each write as the typed
   [Store.op] its write hook received, in [Record]'s binary codec:
   every float must come back with the same bits (NaN payloads and
   signed zeros included) and every string byte for byte. *)

let fbits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* A value with every float replaced by its bits, so that comparing
   renderings compares floats bitwise (NaN payloads, signed zeros). *)
let rec value_bits = function
  | Value.Atom (Mirror_bat.Atom.Flt f) -> Value.str (fbits f)
  | Value.Atom _ as v -> v
  | Value.Tup fs -> Value.Tup (List.map (fun (l, v) -> (l, value_bits v)) fs)
  | Value.VSet vs -> Value.VSet (List.map value_bits vs)
  | Value.Xv x -> Value.Xv { x with items = List.map value_bits x.items }

let render_floats a = String.concat "," (Array.to_list (Array.map fbits a))
let render_matrix m = String.concat ";" (Array.to_list (Array.map render_floats m))

let render_bag bag =
  String.concat " " (List.map (fun (w, tf) -> Printf.sprintf "%S=%s" w (fbits tf)) bag)

let render_segs segs =
  String.concat " "
    (List.map
       (fun { Mirror_mm.Segment.x; y; w; h } -> Printf.sprintf "%d,%d,%d,%d" x y w h)
       segs)

let render_model (m : Mirror_mm.Autoclass.model) =
  Printf.sprintf "k=%d w=%s mu=%s var=%s ll=%s trace=%s" m.k (render_floats m.weights)
    (render_matrix m.means) (render_matrix m.variances) (fbits m.loglik)
    (render_floats (Array.of_list m.loglik_trace))

(* A rendering independent of the codec under test. *)
let render_op = function
  | Store.O_doc (doc, url) -> Printf.sprintf "doc %d %S" doc url
  | Store.O_segments (doc, segs) -> Printf.sprintf "segs %d %s" doc (render_segs segs)
  | Store.O_features (doc, space, v) -> Printf.sprintf "feats %d %S %s" doc space (render_matrix v)
  | Store.O_model (space, m) -> Printf.sprintf "model %S %s" space (render_model m)
  | Store.O_text (doc, bag) -> Printf.sprintf "text %d %s" doc (render_bag bag)
  | Store.O_visual (doc, bag) -> Printf.sprintf "visual %d %s" doc (render_bag bag)
  | Store.O_thesaurus None -> "thesaurus marker"
  | Store.O_thesaurus (Some _) -> "thesaurus value"

let nasty_floats =
  [|
    Float.nan;
    Int64.float_of_bits 0x7ff8000000000abcL;
    Int64.float_of_bits 0xfff8000000000001L;
    -0.0;
    0.0;
    Float.ldexp 1.0 (-1074);
    -.Float.ldexp 3.0 (-1070);
    Float.infinity;
    Float.neg_infinity;
    Float.max_float;
    1.0 /. 3.0;
  |]

(* A zigzag LEB128 varint, written here independently of the codec:
   seven bits a byte, low group first, the sign in the lowest bit. *)
let varint i =
  let b = Buffer.create 10 in
  let rec go z =
    if z lsr 7 = 0 then Buffer.add_char b (Char.chr z)
    else begin
      Buffer.add_char b (Char.chr (z land 0x7f lor 0x80));
      go (z lsr 7)
    end
  in
  go ((i lsl 1) lxor (i asr 62));
  Buffer.contents b

let test_store_op_round_trips () =
  let texts = "a \"quoted\" word" :: nasty_texts in
  let bag = List.mapi (fun i w -> (w, nasty_floats.(i mod Array.length nasty_floats))) texts in
  let model =
    {
      Mirror_mm.Autoclass.k = 2;
      weights = nasty_floats;
      means = [| nasty_floats; [||] |];
      variances = [| [| 1e-300 |]; nasty_floats |];
      loglik = Float.nan;
      loglik_trace = Array.to_list nasty_floats;
    }
  in
  let ops =
    List.concat
      [
        List.mapi (fun i text -> Store.O_doc (i - 1, text)) texts;
        [
          Store.O_segments
            ( 3,
              [
                { Mirror_mm.Segment.x = 0; y = 1; w = 2; h = 3 };
                { x = max_int; y = min_int; w = -1; h = 1 };
              ] );
          Store.O_segments (4, []);
          Store.O_features (5, "gabor", [| nasty_floats; [||]; [| -0.0 |] |]);
          Store.O_features (6, "", [||]);
          Store.O_text (8, bag);
          Store.O_text (9, []);
          Store.O_visual (10, bag);
          Store.O_visual (11, []);
          Store.O_thesaurus None;
        ];
        List.map (fun text -> Store.O_model (text, model)) texts;
        List.map (fun text -> Store.O_features (7, text, [| nasty_floats |])) texts;
      ]
  in
  List.iter
    (fun op ->
      let enc = Record.encode (Record.Store_op op) in
      (match Record.decode enc with
      | Ok (Record.Store_op op') ->
        Alcotest.(check string) "store op round-trips bitwise" (render_op op) (render_op op')
      | Ok r -> Alcotest.failf "%s decoded as %s" (render_op op) (Record.describe r)
      | Error e -> Alcotest.failf "codec rejects %s: %s" (render_op op) e);
      for k = 0 to String.length enc - 1 do
        match Record.decode (String.sub enc 0 k) with
        | Error _ -> ()
        | Ok r ->
          Alcotest.failf "a %d-byte prefix of %s decodes as %s" k (render_op op)
            (Record.describe r)
      done)
    ops;
  Alcotest.(check string) "describe names the kind and doc" "store-op visual doc 10 (2 words)"
    (Record.describe (Record.Store_op (Store.O_visual (10, [ ("a", 1.0); ("b", 2.0) ]))));
  (* the built thesaurus is logged as a rebuild marker *)
  let th = Mirror_thesaurus.Concepts.build [] in
  (match Record.decode (Record.encode (Record.Store_op (Store.O_thesaurus (Some th)))) with
  | Ok (Record.Store_op (Store.O_thesaurus None)) -> ()
  | _ -> Alcotest.fail "a thesaurus op must decode to the rebuild marker");
  (* lengths and counts near max_int are refused, not trusted *)
  let int64 = varint in
  List.iter
    (fun junk ->
      match Record.decode junk with
      | Error _ -> ()
      | Ok r -> Alcotest.failf "junk decodes as %s" (Record.describe r))
    [
      "N";
      "Nz";
      "Nd" ^ int64 1 ^ int64 max_int;
      "Nf" ^ int64 1 ^ int64 max_int;
      "Nf" ^ int64 1 ^ int64 0 ^ int64 max_int;
      "Ns" ^ int64 1 ^ int64 (max_int - 3);
      "Nh" ^ "x";
    ]

(* {1 Varint boundaries}

   Every int, length and count in a record is a varint.  [Replace]
   rows holding ints at the encoding's boundaries round-trip, in the
   bytes written above; a varint that is overlong, unterminated or
   wider than an int is refused; and every cut of every record
   decodes to [Error], never an exception. *)

let int_boundaries =
  [ 0; 1; -1; 63; -63; 64; -64; max_int; min_int; max_int - 1; min_int + 1 ]
  @ List.concat_map
      (fun k ->
        let p = 1 lsl k in
        [ p; -p; p - 1; 1 - p ])
      (List.init 62 Fun.id)

let test_replace_int_boundaries () =
  List.iter
    (fun (i, bytes) -> Alcotest.(check string) (Printf.sprintf "varint %d" i) bytes (varint i))
    [
      (0, "\000");
      (-1, "\001");
      (1, "\002");
      (63, "\126");
      (-64, "\127");
      (64, "\128\001");
      (max_int, "\254" ^ String.make 7 '\255' ^ "\127");
      (min_int, String.make 8 '\255' ^ "\127");
    ];
  let head = "R" ^ varint 1 ^ "T" in
  List.iter
    (fun i ->
      let r = Record.Replace ("T", [ Value.int i ]) in
      let enc = Record.encode r in
      Alcotest.(check string) (Printf.sprintf "encoding of %d" i) (head ^ varint 1 ^ "i" ^ varint i) enc;
      match Record.decode enc with
      | Ok r' when r' = r -> ()
      | Ok r' -> Alcotest.failf "%d decodes as %s" i (Record.describe r')
      | Error e -> Alcotest.failf "%d is refused: %s" i e)
    int_boundaries;
  let rows =
    Record.Replace
      ( "T",
        List.map
          (fun i ->
            Value.Tup
              [
                ("n", Value.int i);
                ("o", Value.Atom (Mirror_bat.Atom.Oid i));
                ("s", Value.VSet [ Value.str (String.make (abs (i mod 300)) 'x') ]);
              ])
          int_boundaries )
  in
  let one = head ^ varint 1 ^ "i" in
  List.iter
    (fun (what, junk) ->
      match Record.decode junk with
      | Error _ -> ()
      | Ok r -> Alcotest.failf "%s decodes as %s" what (Record.describe r)
      | exception e -> Alcotest.failf "%s raises %s" what (Printexc.to_string e))
    [
      ("an overlong zero", one ^ "\128\000");
      ("an overlong one", one ^ "\130\000");
      ("an overlong count", head ^ "\130\000" ^ "i\000");
      ("an unterminated varint", one ^ "\128");
      ("an unterminated count", head ^ "\255");
      ("a varint wider than an int", one ^ String.make 8 '\255' ^ "\255\001");
      ("a ten-byte varint", one ^ String.make 9 '\128' ^ "\001");
      ("a varint over 64 bits", one ^ String.make 10 '\255' ^ "\001");
    ];
  List.iter
    (fun r ->
      let enc = Record.encode r in
      (match Record.decode enc with
      | Ok r' when r' = r -> ()
      | _ -> Alcotest.failf "%s does not round-trip" (Record.describe r));
      for k = 0 to String.length enc - 1 do
        match Record.decode (String.sub enc 0 k) with
        | Error _ -> ()
        | Ok r' ->
          Alcotest.failf "a %d-byte prefix of %s decodes as %s" k (Record.describe r)
            (Record.describe r')
        | exception e ->
          Alcotest.failf "a %d-byte prefix of %s raises %s" k (Record.describe r)
            (Printexc.to_string e)
      done)
    (rows :: List.map (fun i -> Record.Replace ("T", [ Value.int i ])) int_boundaries)

(* {1 Row-level DML records}

   An insert journals only its rows, a delete only the positions it
   removed.  Both round-trip exactly (ints at the varint boundaries,
   nasty strings, nested sets, CONTREP bags); every cut of either is
   refused, and so is every single-bit flip of one in its WAL frame. *)

let test_row_records_round_trip () =
  let rows =
    List.mapi
      (fun i text ->
        Value.Tup
          [
            ("n", Value.int (List.nth int_boundaries (i * 7)));
            ("t", Value.str text);
            ("s", Value.VSet [ Value.VSet [ Value.int i; Value.int (-i) ]; Value.VSet [] ]);
            ("c", Value.contrep [ (text, nasty_floats.(i)); ("all", 1.0) ]);
          ])
      nasty_texts
  in
  Alcotest.(check string) "a delete's layout"
    ("P" ^ varint 1 ^ "T" ^ varint 3 ^ varint 0 ^ varint 2 ^ varint 64)
    (Record.encode (Record.Delete ("T", [ 0; 2; 64 ])));
  let records =
    [
      Record.Insert ("T", rows);
      Record.Insert ("T", []);
      Record.Insert ("nul\000name", [ List.hd rows ]);
      Record.Delete ("T", []);
      Record.Delete ("T", int_boundaries);
      Record.Delete ("T", [ 0; 1; 63; 64; max_int ]);
    ]
    @ List.map (fun i -> Record.Insert ("T", [ Value.int i ])) int_boundaries
  in
  List.iter
    (fun r ->
      let enc = Record.encode r in
      (* re-encoding compares the floats bitwise, NaNs included *)
      (match Record.decode enc with
      | Ok r' when Record.encode r' = enc -> ()
      | Ok r' -> Alcotest.failf "%s decodes as %s" (Record.describe r) (Record.describe r')
      | Error e -> Alcotest.failf "%s is refused: %s" (Record.describe r) e);
      for k = 0 to String.length enc - 1 do
        match Record.decode (String.sub enc 0 k) with
        | Error _ -> ()
        | Ok r' ->
          Alcotest.failf "a %d-byte prefix of %s decodes as %s" k (Record.describe r)
            (Record.describe r')
        | exception e ->
          Alcotest.failf "a %d-byte prefix of %s raises %s" k (Record.describe r)
            (Printexc.to_string e)
      done;
      let framed = Wal.frame enc in
      for bit = 0 to (8 * Bytes.length framed) - 1 do
        let b = Bytes.copy framed in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
        (match Wal.parse_frames (Bytes.to_string b) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "bit %d flipped in %s passes the frame" bit (Record.describe r));
        (* and the record decoder, handed the damaged payload, never raises *)
        match Record.decode (Bytes.sub_string b 8 (Bytes.length b - 8)) with
        | Ok _ | Error _ -> ()
        | exception e ->
          Alcotest.failf "bit %d flipped in %s raises %s" bit (Record.describe r)
            (Printexc.to_string e)
      done)
    records

(* Append framed records to the last log segment of an abandoned store,
   as a build writing them would have. *)
let append_records dir records =
  let seg = List.nth (wal_segments dir) (List.length (wal_segments dir) - 1) in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 seg (fun oc ->
      List.iter (fun r -> output_bytes oc (Wal.frame (Record.encode r))) records)

(* Redo refuses a delete whose positions are out of range or not
   strictly ascending: an [Error], never an exception, and the extent
   is left as it was.  Recovery refuses a log that holds one. *)
let test_corrupt_delete_refused () =
  let mir = Mirror.create () in
  let st = Mirror.storage mir in
  ignore
    (ok
       (Mirror.exec_program mir
          (Printf.sprintf
             "define T as %s; insert into T tuple(a: 1, s: {1}); insert into T tuple(a: 2, s: \
              {2}); insert into T tuple(a: 3, s: {3});"
             schema_src)));
  let before = fingerprint st in
  List.iter
    (fun (what, name, positions) ->
      match Snapshot.redo mir (Record.Delete (name, positions)) with
      | Ok () -> Alcotest.failf "%s: redo accepted it" what
      | Error _ ->
        Alcotest.(check string) (what ^ ": the extent is unchanged") before (fingerprint st)
      | exception e -> Alcotest.failf "%s: redo raises %s" what (Printexc.to_string e))
    [
      ("one past the end", "T", [ 3 ]);
      ("far past the end", "T", [ max_int ]);
      ("negative", "T", [ -1 ]);
      ("min_int", "T", [ min_int ]);
      ("descending", "T", [ 2; 0 ]);
      ("repeated", "T", [ 1; 1 ]);
      ("in range, then past the end", "T", [ 0; 3 ]);
      ("ascending, then back", "T", [ 0; 2; 1 ]);
      ("an unknown extent", "U", [ 0 ]);
    ];
  ok (Snapshot.redo mir (Record.Delete ("T", [ 0; 2 ])));
  Alcotest.(check int) "a valid delete removes its rows" 1 (Storage.extent_count st "T");
  with_temp_dir (fun dir ->
      build_dirty dir;
      append_records dir [ Record.Delete ("T", [ 1; 0 ]) ];
      expect_open_error ~what:"a descending delete in the log" ~needle:"ascending" dir)

(* A log written before inserts and deletes had records of their own
   holds a [Replace] of the whole post-state for each; it still replays
   to the same extents. *)
let test_replace_only_log_replays () =
  let program =
    [
      "insert into T tuple(a: 1, s: {1, 2});";
      "insert into T tuple(a: 2, s: {3});";
      "delete from T where THIS.a = 1;";
      "insert into T tuple(a: 4, s: {4, 5});";
    ]
  in
  let define = Printf.sprintf "define T as %s;" schema_src in
  let reference = Mirror.create () in
  ignore (ok (Mirror.exec_program reference define));
  let replaces =
    List.map
      (fun src ->
        ignore (ok (Mirror.exec_program reference src));
        Record.Replace ("T", Option.get (Storage.extent_rows (Mirror.storage reference) "T")))
      program
  in
  with_temp_dir (fun dir ->
      let t, _ = ok (Durable.open_ ~dir ()) in
      ignore (ok (Mirror.exec_program (Durable.mirror t) define));
      Durable.abandon t;
      append_records dir replaces;
      let t2, r = ok (Durable.open_ ~dir ()) in
      Alcotest.(check int) "the define and every replace redone" 5 r.Durable.replayed;
      Alcotest.(check string) "the same extents" (fingerprint (Mirror.storage reference))
        (fingerprint (Durable.storage t2));
      ok (Durable.certify t2);
      Durable.close t2)

(* {1 Row-level records against one Replace}

   Seeded runs of up to 20 inserts and deletes, on an extent shaped as
   the corpus's [R] (a nested set and a CONTREP bag per row) and on
   one shaped as mirrorbench's [Side], are journaled as row-level
   records and redone by a reopen.  Every query must then answer
   bitwise as it does over one [Replace] of the same final rows. *)

type dml = Ins of Value.t list | Del of (Value.t -> bool)

(* [n] draws of [f], in order: the PRNG's sequence decides the data *)
let draws n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let corpus_row g =
  let a = Prng.int g 8 - 2 in
  let b = Prng.int g 6 in
  let s = draws (Prng.int g 4) (fun () -> Value.int (Prng.int g 10)) in
  let c =
    List.filter_map
      (fun w ->
        if Prng.int g 3 = 0 then Some (w, Float.of_int (1 + Prng.int g 4) /. 2.0) else None)
      [ "cat"; "dog"; "stripe"; "zebra" ]
  in
  Value.Tup
    [ ("a", Value.int a); ("b", Value.int b); ("s", Value.VSet s); ("c", Value.contrep c) ]

let corpus_pred g =
  let x = Value.int (Prng.int g 8 - 2) in
  fun r -> Value.field_exn r "a" = x

let side_schema =
  Types.Set
    (Types.Tuple [ ("k", Types.Atomic Mirror_bat.Atom.TInt); ("v", Types.Atomic Mirror_bat.Atom.TInt) ])

let side_row g =
  let k = Prng.int g 64 in
  let v = Prng.int g 1000 in
  Value.Tup [ ("k", Value.int k); ("v", Value.int v) ]

(* one row by key, or every row under a value bound *)
let side_pred g =
  let field, below = if Prng.int g 2 = 0 then ("k", false) else ("v", true) in
  let x = Prng.int g (if below then 300 else 64) in
  fun r ->
    match Value.field_exn r field with
    | Value.Atom (Mirror_bat.Atom.Int y) -> if below then y < x else y = x
    | _ -> false

let side_queries =
  [
    "Side";
    "count(Side)";
    "sum(map[THIS.v](Side))";
    "max(map[THIS.v](Side))";
    "count(select[THIS.v < 500](Side))";
    "sum(map[THIS.v](select[THIS.k < 16](Side)))";
    "map[tuple(k: THIS.k, w: THIS.v * 2)](Side)";
    "count(join[THIS1.k = THIS2.k](Side, Side))";
  ]

let check_row_records ~name ~ty ~init ~row ~pred ~queries seed =
  let g = Prng.create seed in
  let ops =
    draws (1 + Prng.int g 20) (fun () ->
        if Prng.int g 5 < 3 then Ins (draws (1 + Prng.int g 2) (fun () -> row g))
        else Del (pred g))
  in
  let answer st q =
    match Result.bind (Mirror_core.Parser.parse_expr q) (Eval.query_value st) with
    | Ok v -> Value.to_string (value_bits v)
    | Error e -> "error: " ^ e
  in
  with_temp_dir (fun dir ->
      let t, _ = ok (Durable.open_ ~dir ()) in
      let st = Durable.storage t in
      ok (Storage.define st ~name ty);
      ignore (ok (Storage.load st ~name init));
      ok (Durable.checkpoint t);
      List.iter
        (function
          | Ins rows -> ignore (ok (Storage.insert st ~name rows))
          | Del p -> ignore (ok (Storage.delete_where st ~name p)))
        ops;
      let final = Option.get (Storage.extent_rows st name) in
      let ins, del = row_records dir in
      Alcotest.(check int) "one row-level record per statement" (List.length ops) (ins + del);
      Durable.abandon t;
      let t2, r = ok (Durable.open_ ~dir ()) in
      Alcotest.(check int) "every statement redone" (List.length ops) r.Durable.replayed;
      let once = Mirror.create () in
      ok (Snapshot.redo once (Record.Define (name, ty)));
      ok (Snapshot.redo once (Record.Replace (name, final)));
      List.iter
        (fun q ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: %s" seed q)
            (answer (Mirror.storage once) q)
            (answer (Durable.storage t2) q))
        (name :: queries);
      Durable.close t2)

let test_row_records_differential () =
  for seed = 1 to 20 do
    check_row_records ~name:"R" ~ty:Mirror_core.Corpus.schema ~init:Mirror_core.Corpus.rows
      ~row:corpus_row ~pred:corpus_pred ~queries:Mirror_core.Corpus.queries seed;
    check_row_records ~name:"Side" ~ty:side_schema
      ~init:(draws 8 (let g = Prng.create (1000 + seed) in fun () -> side_row g))
      ~row:side_row ~pred:side_pred ~queries:side_queries seed
  done

(* Every read of the daemon store, floats as their bits. *)
let render_store st =
  let per_doc doc =
    [
      Printf.sprintf "doc %d %s" doc
        (Option.fold ~none:"-" ~some:(Printf.sprintf "%S") (Store.url_of st doc));
      Printf.sprintf "  segs %s" (Option.fold ~none:"-" ~some:render_segs (Store.segments st ~doc));
      Printf.sprintf "  text %s" (Option.fold ~none:"-" ~some:render_bag (Store.text st ~doc));
      Printf.sprintf "  visual %s" (render_bag (Store.visual_words st ~doc));
    ]
    @ List.map
        (fun space ->
          Printf.sprintf "  %s %s" space
            (Option.fold ~none:"-" ~some:render_matrix (Store.features st ~doc ~space)))
        (Store.feature_spaces st)
  in
  List.concat_map per_doc (Store.docs st)
  @ [ "spaces " ^ String.concat "," (Store.feature_spaces st) ]
  @ List.map
      (fun space ->
        Printf.sprintf "model %s %s" space
          (Option.fold ~none:"-" ~some:render_model (Store.model st ~space)))
      (Store.clustered_spaces st)
  @ List.map
      (fun space ->
        Printf.sprintf "all %s %d" space (List.length (Store.all_features st ~space)))
      (Store.feature_spaces st)
  @ [
      "concepts "
      ^ Option.fold ~none:"-"
          ~some:(fun th -> String.concat "," (Mirror_thesaurus.Concepts.concepts th))
          (Store.thesaurus st);
    ]

(* The §5 library built against a durable store, then the store
   abandoned as a crash would leave it: the metadata store that
   [Durable.orchestrator] rebuilds from the log must answer every read
   exactly as the live one did — the thesaurus rebuilt from the
   evidence logged ahead of its marker. *)
let test_image_library_store_reopens_bitwise () =
  with_temp_dir @@ fun dir ->
  let scenes =
    Mirror_mm.Synth.corpus (Prng.create 11) ~n:4 ~width:24 ~height:24 ~annotated_fraction:0.75 ()
  in
  let d, _ = ok (Durable.open_ ~dir ()) in
  (* The hook sees each op the pipeline's authoritative store applied,
     in order, so applying them to a hookless store yields that store. *)
  let live = Store.create () in
  let journal op =
    Durable.store_journal d op;
    Store.apply live op
  in
  ignore (ok (Mirror.build_image_library (Durable.mirror d) ~journal ~scenes ()));
  let m = Durable.mirror d in
  Alcotest.(check bool) "the live store holds the library" true (List.length (Store.docs live) = 4);
  List.iter
    (fun doc ->
      let url = Option.get (Store.url_of live doc) in
      Alcotest.(check string)
        ("library visual bag of " ^ url)
        (render_bag (Mirror.visual_bag m url))
        (render_bag (Store.visual_words live ~doc)))
    (Store.docs live);
  Alcotest.(check bool) "a thesaurus was built" true (Store.thesaurus live <> None);
  Durable.abandon d;
  let d2, r = ok (Durable.open_ ~dir ()) in
  Alcotest.(check bool) "the store history was replayed" true (r.Durable.store_ops <> []);
  let orch = ok (Durable.orchestrator d2) in
  let rebuilt = (Mirror_daemon.Orchestrator.ctx orch).Mirror_daemon.Daemon.store in
  Alcotest.(check (list string)) "every read matches" (render_store live) (render_store rebuilt);
  Alcotest.(check bool) "thesaurus equal" true (Store.thesaurus rebuilt = Store.thesaurus live);
  Alcotest.(check bool) "evidence equal" true (Store.evidence rebuilt = Store.evidence live);
  Mirror_daemon.Orchestrator.shutdown orch

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

(* A checkpoint holds the extents as their records, so float attributes
   and CONTREP term frequencies come back with the same bits: NaN
   payloads, signed zeros, subnormals and the extremes included — from
   a checkpoint and from [Snapshot.save]. *)
let test_floats_survive_bitwise () =
  let module Atom = Mirror_bat.Atom in
  let rendered st =
    List.map
      (fun n ->
        (n, Option.map (List.map (fun v -> Value.to_string (value_bits v))) (Storage.extent_rows st n)))
      (Storage.extents st)
  in
  let ty =
    Types.Set
      (Types.Tuple
         [ ("x", Types.Atomic Atom.TFlt); ("c", Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ])) ])
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i f ->
           Value.Tup
             [ ("x", Value.flt f); ("c", Value.contrep [ (Printf.sprintf "w%d" i, f); ("all", f) ]) ])
         nasty_floats)
  in
  let state = Alcotest.(list (pair string (option (list string)))) in
  with_temp_dir (fun dir ->
      let t, _ = ok (Durable.open_ ~dir ()) in
      let st = Durable.storage t in
      ok (Storage.define st ~name:"F" ty);
      ignore (ok (Storage.load st ~name:"F" rows));
      let live = rendered st in
      ok (Durable.checkpoint t);
      Durable.abandon t;
      let t2, r = ok (Durable.open_ ~dir ()) in
      Alcotest.(check int) "nothing past the checkpoint" 0 r.Durable.replayed;
      Alcotest.check state "rows after checkpoint + reopen" live (rendered (Durable.storage t2));
      let saved = Filename.concat dir "saved" in
      ok (Mirror_store.Snapshot.save (Durable.storage t2) ~dir:saved);
      Alcotest.check state "rows after save + load" live
        (rendered (ok (Mirror_store.Snapshot.load ~dir:saved)));
      Durable.close t2)

(* A checkpoint's snapshot cut at any frame boundary is a run of whole
   frames with records missing — extents, side history or deliveries.
   Its end marker is what refuses it, naming the snapshot, both to
   [open_] and to the read-only [deliveries]. *)
let test_snapshot_cut_refused () =
  with_temp_dir (fun dir ->
      let t, _ = ok (Durable.open_ ~dir ()) in
      List.iter (apply_durable t)
        [
          Exec (Printf.sprintf "define T as %s;" schema_src);
          Exec "insert into T tuple(a: 1, s: {1, 2});";
          Exec "define U as SET< Atomic<str> >;";
          Exec "insert into U 'u';";
        ];
      Mirror.give_feedback (Durable.mirror t) ~query:"q" ~judgements:[ ("img1", true) ];
      List.iter (fun i -> Durable.store_journal t (Store.O_doc (i, Printf.sprintf "img%d" i))) [ 1; 2; 3 ];
      let j = Durable.journal t in
      let delivery seq =
        { Bus.seq; message = { Bus.topic = "t"; subject = seq; payload = [] }; attempts = 0; deadline = None }
      in
      j.Mirror_daemon.Orchestrator.routed "thesaurus" (delivery 1);
      j.Mirror_daemon.Orchestrator.routed "autoclass" (delivery 2);
      j.Mirror_daemon.Orchestrator.dead
        { Deadletter.daemon = "thesaurus"; delivery = delivery 1; cause = Deadletter.Overflow; at = 1.0 };
      Durable.close t;
      let snap = (fst (ok (Durable.inspect ~dir))).Durable.snapshot in
      let file = Filename.concat dir snap in
      let src = In_channel.with_open_bin file In_channel.input_all in
      let rec boundaries pos acc =
        if pos >= String.length src then List.rev acc
        else boundaries (pos + 8 + Int32.to_int (String.get_int32_le src pos)) (pos :: acc)
      in
      let cuts = boundaries 0 [] in
      Alcotest.(check bool) "extents, side records and deliveries" true (List.length cuts > 10);
      List.iter
        (fun cut ->
          Out_channel.with_open_bin file (fun oc -> output_string oc (String.sub src 0 cut));
          (match Durable.open_ ~dir () with
          | Ok _ -> Alcotest.failf "a snapshot cut at byte %d/%d opened" cut (String.length src)
          | Error e -> if not (contains ~needle:snap e) then Alcotest.failf "%S does not name %s" e snap);
          match Durable.deliveries ~dir with
          | Ok _ -> Alcotest.failf "deliveries read a snapshot cut at byte %d" cut
          | Error _ -> ())
        cuts;
      Out_channel.with_open_bin file (fun oc -> output_string oc src);
      let t2, r = ok (Durable.open_ ~dir ()) in
      Alcotest.(check int) "the whole snapshot reopens" 3 (List.length r.Durable.store_ops);
      Alcotest.(check (list string)) "both extents" [ "T"; "U" ] (Storage.extents (Durable.storage t2));
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
          Alcotest.test_case "a snapshot cut at any frame boundary is refused" `Quick
            test_snapshot_cut_refused;
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
          Alcotest.test_case "floats survive checkpoint + reopen bitwise" `Quick
            test_floats_survive_bitwise;
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
      ( "store-journal",
        [
          Alcotest.test_case "store ops round-trip bitwise" `Quick test_store_op_round_trips;
          Alcotest.test_case "replace records round-trip int boundaries" `Quick
            test_replace_int_boundaries;
          Alcotest.test_case "insert and delete records round-trip" `Quick
            test_row_records_round_trip;
          Alcotest.test_case "redo refuses a corrupt delete" `Quick test_corrupt_delete_refused;
          Alcotest.test_case "a log of replace records still replays" `Quick
            test_replace_only_log_replays;
          Alcotest.test_case "row-level records answer as one replace" `Quick
            test_row_records_differential;
          Alcotest.test_case "a reopened image-library store equals the live one" `Quick
            test_image_library_store_reopens_bitwise;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "500-seed crash fuzzer" `Slow test_crash_fuzz ] );
    ]
