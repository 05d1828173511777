module Storage = Mirror_core.Storage
module Mirror = Mirror_core.Mirror
module Plancheck = Mirror_core.Plancheck
module Expr = Mirror_core.Expr
module Naive = Mirror_core.Naive
module Eval = Mirror_core.Eval
module Value = Mirror_core.Value
module Bus = Mirror_daemon.Bus
module Daemon = Mirror_daemon.Daemon
module Deadletter = Mirror_daemon.Deadletter
module Dictionary = Mirror_daemon.Dictionary
module Orchestrator = Mirror_daemon.Orchestrator
module Store = Mirror_daemon.Store
module Faults = Mirror_daemon.Faults
module Crc32 = Mirror_util.Crc32
module Fsx = Mirror_util.Fsx
module Trace = Mirror_util.Trace

let ( let* ) = Result.bind

type config = { wal : Wal.config; checkpoint_every : int }

let default_config = { wal = Wal.default_config; checkpoint_every = 0 }

type recovery = {
  replayed : int;
  wal_end : Wal.replay_end;
  feedback : (string * (string * bool) list) list;
  store_ops : Store.op list;
}

type dead = { route : Record.fab_route; cause : Deadletter.cause; at : float }

(* What the log holds beyond Storage: a snapshot rebuilds the extents
   from one [Define] and one [Replace] each, so everything else a
   record changes lives here — the Feedback/Store_op/Dict_op history
   (whose effects sit in session side state: [Mirror.t.adapt], the
   daemon store, the dictionary) and the delivery state machine's
   pending and dead-letter sets.  Every snapshot carries all of it
   after its extents, so checkpoint GC never deletes the only copy. *)
type state = {
  mutable side : Record.t list;  (* Feedback/Store_op/Dict_op history, newest first *)
  pending : (string * int, Record.fab_route) Hashtbl.t;
  dead : (string * int, dead) Hashtbl.t;
}

let fresh_state () = { side = []; pending = Hashtbl.create 64; dead = Hashtbl.create 16 }

type t = {
  dir : string;
  config : config;
  mir : Mirror.t;
  st : state;
  mutable wal : Wal.t;
  mutable checkpoint_lsn : int;
  mutable since : int;  (* commits since the checkpoint *)
  mutable group : Record.t list option;  (* Some (reversed) inside {!atomically} *)
  mutable in_checkpoint : bool;
  mutable last_error : string option;
  mutable closed : bool;
  mutable trace : Trace.t;
  mutable wal_hist : Wal.stats;
      (* counters of retired log writers: [checkpoint] replaces [wal]
         with a fresh one, so lifetime stats are the sum of this and
         the live writer's counters *)
}

let mirror t = t.mir
let storage t = Mirror.storage t.mir
let set_trace t tr = t.trace <- tr

(* {1 Layout} *)

let meta_file dir = Filename.concat dir "CHECKPOINT"
let wal_dir dir = Filename.concat dir "wal"
let snap_name lsn = Printf.sprintf "snap.%d" lsn

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* {1 The CHECKPOINT metadata file}

   Two [key value] lines plus a [%crc] footer; written to a temp file
   and renamed, which is the commit point of the whole checkpoint
   protocol. *)

let write_meta dir ~snap ~lsn =
  let body = Printf.sprintf "snap %s\nlsn %d\n" snap lsn in
  let tmp = meta_file dir ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc body;
      Printf.fprintf oc "%%crc %s\n" (Crc32.to_hex (Crc32.string body));
      (* the rename below is only a commit if these bytes hit the disk
         first; without the fsync, power loss can persist the rename
         over an unwritten file and brick the store *)
      Fsx.fsync_out oc);
  tmp

let read_meta dir =
  match read_file (meta_file dir) with
  | exception Sys_error e -> Error e
  | src ->
    let rec split_footer body = function
      | [] | [ "" ] -> Error "CHECKPOINT is missing its %crc footer"
      | (line :: rest) when String.starts_with ~prefix:"%crc " line && (rest = [] || rest = [ "" ])
        -> (
        let body = String.concat "" (List.rev_map (fun l -> l ^ "\n") body) in
        match Crc32.of_hex (String.trim (String.sub line 5 (String.length line - 5))) with
        | None -> Error "CHECKPOINT has a malformed %crc footer"
        | Some expect ->
          if Crc32.string body <> expect then Error "CHECKPOINT checksum mismatch"
          else Ok body)
      | line :: rest -> split_footer (line :: body) rest
    in
    let* body = split_footer [] (String.split_on_char '\n' src) in
    let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
    let field key =
      let prefix = key ^ " " in
      match List.find_opt (String.starts_with ~prefix) lines with
      | Some l ->
        Ok (String.sub l (String.length prefix) (String.length l - String.length prefix))
      | None -> Error ("CHECKPOINT is missing field " ^ key)
    in
    let* snap = field "snap" in
    let* lsn = field "lsn" in
    match int_of_string_opt lsn with
    | Some lsn -> Ok (snap, lsn)
    | None -> Error "CHECKPOINT has a non-numeric lsn"

(* {1 The one transition function}

   [apply ~redo st r] interprets a record against the side state.  The
   live path and both replay sources (the snapshot, the log suffix) go
   through it, which is what makes "recovery reconstructs the
   journaled state exactly" structural rather than hoped-for.  Records
   whose effect lives in the database itself (Define, Replace, Insert,
   Delete, and Feedback's adaptation) are also handed to [redo] — on
   recovery {!Snapshot.redo}, a no-op on the live path, where the
   effect has already happened.  An inconsistent transition (a dead letter for an
   unknown delivery, a snapshot's end marker) means a corrupt or
   foreign log: fail loudly. *)
let rec apply ~redo st r =
  match r with
  | Record.Define _ | Record.Replace _ | Record.Insert _ | Record.Delete _ -> redo r
  | Record.Feedback _ ->
    st.side <- r :: st.side;
    redo r
  | Record.Store_op _ | Record.Dict_op _ ->
    st.side <- r :: st.side;
    Ok ()
  | Record.Fab_atomic rs ->
    List.fold_left
      (fun acc r ->
        let* () = acc in
        apply ~redo st r)
      (Ok ()) rs
  | Record.Fab_route fr ->
    Hashtbl.replace st.pending (fr.Record.daemon, fr.Record.seq) fr;
    Ok ()
  | Record.Fab_done { daemon; seq } ->
    Hashtbl.remove st.pending (daemon, seq);
    Ok ()
  | Record.Fab_dead { daemon; seq; cause; at } -> (
    match Hashtbl.find_opt st.pending (daemon, seq) with
    | Some route ->
      Hashtbl.remove st.pending (daemon, seq);
      Hashtbl.replace st.dead (daemon, seq) { route; cause; at };
      Ok ()
    | None -> Error (Printf.sprintf "dead letter for unknown delivery #%d @ %s" seq daemon))
  | Record.Fab_redeliver { daemon; seq } -> (
    match Hashtbl.find_opt st.dead (daemon, seq) with
    | Some d ->
      Hashtbl.remove st.dead (daemon, seq);
      Hashtbl.replace st.pending (daemon, seq) { d.route with Record.attempts = 0 };
      Ok ()
    | None -> Error (Printf.sprintf "redeliver of unknown dead letter #%d @ %s" seq daemon))
  | Record.End _ -> Error "an end-of-snapshot marker outside a snapshot"

let no_redo (_ : Record.t) = Ok ()

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* {1 The snapshot}

   One file per checkpoint, [snap.<lsn>] ({!Snapshot}): the extents as
   [Define]/[Replace] records, then the side history, oldest first,
   then the delivery state as the records that rebuild it — a
   [Fab_route] per pending delivery, a [Fab_route] and [Fab_dead] per
   dead letter.  Recovery reads it back through {!apply} like any log
   suffix. *)

let snapshot_records stor st =
  Snapshot.of_storage stor
  @ List.rev st.side
  @ List.map (fun (_, fr) -> Record.Fab_route fr) (sorted_bindings st.pending)
  @ List.concat_map
      (fun ((daemon, seq), d) ->
        [ Record.Fab_route d.route; Record.Fab_dead { daemon; seq; cause = d.cause; at = d.at } ])
      (sorted_bindings st.dead)

(* {1 Checkpointing}

   Protocol (each step bracketed by a crash point):
   1. write the snapshot — the extents plus the side state — into
      [snap.<lsn>.tmp], fsync, and rename it in place;
   2. write CHECKPOINT.tmp (fsynced) and rename it over CHECKPOINT,
      then fsync the directory — the commit;
   3. delete old snapshots and every log segment, oldest first (every
      logged record is now covered by the snapshot, and oldest-first
      keeps any crash remnant a contiguous suffix the replayer
      accepts);
   4. start a fresh segment at [lsn + 1].
   A crash before 2 leaves the previous checkpoint authoritative; a
   crash after 2 leaves at worst orphan files that the next
   checkpoint's GC removes. *)

let commit_checkpoint ~dir ~wal_config ~stor ~st ~lsn ~old_wal =
  Faults.crash_hit "checkpoint.begin";
  let snap = snap_name lsn in
  let snap_path = Filename.concat dir snap in
  let tmp = snap_path ^ ".tmp" in
  Snapshot.write tmp (snapshot_records stor st);
  Faults.crash_hit "checkpoint.snapshot";
  Sys.rename tmp snap_path;
  Fsx.fsync_dir dir;
  Faults.crash_hit "checkpoint.rename";
  let meta_tmp = write_meta dir ~snap ~lsn in
  Faults.crash_hit "checkpoint.meta";
  Sys.rename meta_tmp (meta_file dir);
  (* the durable commit point: only after this fsync may anything the
     old checkpoint and log cover be garbage-collected *)
  Fsx.fsync_dir dir;
  Faults.crash_hit "checkpoint.commit";
  (* past the commit every old-log record is covered by the snapshot,
     so a close failure on the outgoing writer loses nothing *)
  (match old_wal with
  | Some w -> ( try Wal.close w with Sys_error _ -> ())
  | None -> ());
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"snap." f && f <> snap then
        Fsx.rm_rf (Filename.concat dir f))
    (Sys.readdir dir);
  List.iter
    (fun (_, path) -> try Sys.remove path with Sys_error _ -> ())
    (Wal.segments ~dir:(wal_dir dir));
  Faults.crash_hit "checkpoint.gc";
  (Wal.create ~config:wal_config ~dir:(wal_dir dir) ~start_lsn:(lsn + 1) (), lsn)

let checkpoint t =
  if t.closed then Error "durable store is closed"
  else if t.group <> None then Error "checkpoint inside an open group"
  else begin
    t.in_checkpoint <- true;
    Fun.protect
      ~finally:(fun () -> t.in_checkpoint <- false)
      (fun () ->
        Trace.enter t.trace "wal.checkpoint";
        let fin result =
          Trace.leave
            ~attrs:[ ("lsn", string_of_int (Wal.next_lsn t.wal - 1)) ]
            t.trace;
          result
        in
        match
          commit_checkpoint ~dir:t.dir ~wal_config:t.config.wal ~stor:(storage t) ~st:t.st
            ~lsn:(Wal.next_lsn t.wal - 1) ~old_wal:(Some t.wal)
        with
        | exception Sys_error e -> fin (Error e)
        | exception e ->
          ignore (fin (Error ""));
          raise e
        | wal, lsn ->
          t.wal_hist <- Wal.add_stats t.wal_hist (Wal.stats t.wal);
          t.wal <- wal;
          t.checkpoint_lsn <- lsn;
          t.since <- 0;
          t.last_error <- None;
          fin (Ok ()))
  end

(* {1 Commits}

   The one fsync rule: a commit — one record journaled outside a
   group, or one whole {!atomically} group — is appended as one frame
   and fsynced before the call returns.  Nothing else fsyncs the log
   but a segment roll, a checkpoint and close. *)

let commit t r =
  let lsn = Wal.append t.wal (Record.encode r) in
  Wal.sync t.wal;
  Trace.event ~attrs:[ ("lsn", string_of_int lsn) ] t.trace "wal.append";
  t.since <- t.since + 1;
  if t.config.checkpoint_every > 0 && t.since >= t.config.checkpoint_every && not t.in_checkpoint
  then
    (* Commits run inside Result-returning callers (Storage.define/
       load, feedback) after their in-memory mutation applied, so an
       auto-checkpoint failure must not raise through them.  The
       commit itself is durable — only the log truncation failed — so
       stash the error ([status] surfaces it) and let the next commit
       or the close-time checkpoint retry. *)
    match checkpoint t with
    | Ok () -> ()
    | Error e -> t.last_error <- Some ("auto-checkpoint: " ^ e)

let log_record t r =
  (match apply ~redo:no_redo t.st r with
  | Ok () -> ()
  | Error e -> invalid_arg ("Durable: inconsistent record: " ^ e));
  match t.group with Some rs -> t.group <- Some (r :: rs) | None -> commit t r

let atomically t f =
  match t.group with
  | Some _ -> f ()
  | None ->
    if t.closed then raise (Sys_error "durable store is closed");
    t.group <- Some [];
    let v =
      match f () with
      | v -> v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        t.group <- None;
        Printexc.raise_with_backtrace e bt
    in
    let rs = Option.value ~default:[] t.group in
    t.group <- None;
    (match rs with
    | [] -> ()
    | [ r ] -> commit t r
    | rs -> commit t (Record.Fab_atomic (List.rev rs)));
    v

let install_hooks t =
  Storage.set_journal (storage t)
    (Some
       (function
       | Storage.J_define (name, ty) -> log_record t (Record.Define (name, ty))
       | Storage.J_replace (name, rows) -> log_record t (Record.Replace (name, rows))
       | Storage.J_insert (name, rows) -> log_record t (Record.Insert (name, rows))
       | Storage.J_delete (name, positions) -> log_record t (Record.Delete (name, positions))));
  Mirror.set_feedback_hook t.mir
    (Some (fun ~query ~judgements -> log_record t (Record.Feedback { query; judgements })))

let store_journal t op = log_record t (Record.Store_op op)

(* {1 Open / recover} *)

let recovery_of st ~replayed ~wal_end =
  let hist = List.rev st.side in
  {
    replayed;
    wal_end;
    feedback =
      List.filter_map
        (function
          | Record.Feedback { query; judgements } -> Some (query, judgements) | _ -> None)
        hist;
    store_ops =
      List.filter_map
        (function Record.Store_op op -> Some op | _ -> None)
        hist;
  }

(* Replay the snapshot [snap] (covering the log up to [lsn]), then the
   log suffix, through {!apply}: the side state is rebuilt here, the
   database by [redo].  Reads the directory, writes nothing. *)
let replay_dir ~dir ~snap ~lsn ~redo =
  let st = fresh_state () in
  let* records = Snapshot.read (Filename.concat dir snap) in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        Result.map_error (Printf.sprintf "snapshot %s: %s" snap) (apply ~redo st r))
      (Ok ()) records
  in
  let replayed = ref 0 in
  let apply_err = ref None in
  let f rec_lsn payload =
    if !apply_err = None then
      match
        let* r = Record.decode payload in
        incr replayed;
        apply ~redo st r
      with
      | Ok () -> ()
      | Error e -> apply_err := Some (Printf.sprintf "record %d: %s" rec_lsn e)
  in
  let* next, wal_end = Wal.replay ~dir:(wal_dir dir) ~from_lsn:(lsn + 1) ~f in
  let* () =
    match wal_end with
    | Wal.Corrupt msg -> Error ("WAL corruption: " ^ msg)
    | Wal.Clean | Wal.Torn _ -> Ok ()
  in
  let* () = match !apply_err with Some e -> Error e | None -> Ok () in
  Ok (st, next, recovery_of st ~replayed:!replayed ~wal_end)

let mk dir config mir st wal ~checkpoint_lsn =
  let t =
    {
      dir;
      config;
      mir;
      st;
      wal;
      checkpoint_lsn;
      since = 0;
      group = None;
      in_checkpoint = false;
      last_error = None;
      closed = false;
      trace = Trace.null;
      wal_hist = Wal.zero_stats;
    }
  in
  install_hooks t;
  t

let init_fresh ~dir ~(config : config) =
  (match Sys.file_exists dir with
  | false -> Sys.mkdir dir 0o755
  | true -> if not (Sys.is_directory dir) then failwith (dir ^ " is not a directory"));
  let mir = Mirror.create () in
  let st = fresh_state () in
  let wal, lsn =
    commit_checkpoint ~dir ~wal_config:config.wal ~stor:(Mirror.storage mir) ~st ~lsn:0
      ~old_wal:None
  in
  Ok (mk dir config mir st wal ~checkpoint_lsn:lsn, recovery_of st ~replayed:0 ~wal_end:Wal.Clean)

(* Recovery is redo from nothing: an empty database, the snapshot's
   records, then the log suffix, all through one [redo]. *)
let recover ~dir ~(config : config) =
  let* snap, lsn = read_meta dir in
  let mir = Mirror.create () in
  let stor = Mirror.storage mir in
  let redo r =
    Result.map_error
      (fun e -> Printf.sprintf "redo of %s: %s" (Record.describe r) e)
      (Snapshot.redo mir r)
  in
  let* st, next, recovery = replay_dir ~dir ~snap ~lsn ~redo in
  (* A replayed suffix or a torn tail leaves the log ahead of (or
     damaged behind) the snapshot: fold it into a fresh checkpoint so
     the store always restarts from a clean prefix.  The pre-commit
     disk state is untouched until the new CHECKPOINT renames in, so a
     crash during this re-checkpoint just recovers again. *)
  if recovery.replayed > 0 || recovery.wal_end <> Wal.Clean then
    (* the log's last good record is [next - 1]: make the fresh
       snapshot claim exactly that prefix *)
    let wal, ck_lsn =
      commit_checkpoint ~dir ~wal_config:config.wal ~stor ~st ~lsn:(next - 1) ~old_wal:None
    in
    Ok (mk dir config mir st wal ~checkpoint_lsn:ck_lsn, recovery)
  else
    let wal = Wal.create ~config:config.wal ~dir:(wal_dir dir) ~start_lsn:next () in
    Ok (mk dir config mir st wal ~checkpoint_lsn:lsn, recovery)

let open_ ?(config = default_config) ~dir () =
  let fresh =
    (not (Sys.file_exists (meta_file dir))) && Wal.segments ~dir:(wal_dir dir) = []
  in
  try if fresh then init_fresh ~dir ~config else recover ~dir ~config with
  | Sys_error e -> Error e
  | Failure e -> Error e

(* {1 Introspection} *)

type status = {
  next_lsn : int;
  checkpoint_lsn : int;
  since_checkpoint : int;
  segments : int;
  log_bytes : int;
  snapshot : string;
  last_error : string option;
  wal_appends : int;
  wal_fsyncs : int;
}

let log_stats dir =
  let segs = Wal.segments ~dir:(wal_dir dir) in
  let bytes =
    List.fold_left
      (fun acc (_, path) ->
        match Unix.stat path with
        | { Unix.st_size; _ } -> acc + st_size
        | exception Unix.Unix_error _ -> acc)
      0 segs
  in
  (List.length segs, bytes)

let status t =
  let segments, log_bytes = log_stats t.dir in
  let ws = Wal.add_stats t.wal_hist (Wal.stats t.wal) in
  {
    next_lsn = Wal.next_lsn t.wal;
    checkpoint_lsn = t.checkpoint_lsn;
    since_checkpoint = t.since;
    segments;
    log_bytes;
    snapshot = snap_name t.checkpoint_lsn;
    last_error = t.last_error;
    wal_appends = ws.Wal.appends;
    wal_fsyncs = ws.Wal.fsyncs;
  }

let inspect ~dir =
  let* snap, lsn = read_meta dir in
  let* next, wal_end =
    Wal.replay ~dir:(wal_dir dir) ~from_lsn:(lsn + 1) ~f:(fun (_ : int) (_ : string) -> ())
  in
  let segments, log_bytes = log_stats dir in
  Ok
    ( {
        next_lsn = next;
        checkpoint_lsn = lsn;
        since_checkpoint = next - 1 - lsn;
        segments;
        log_bytes;
        snapshot = snap;
        last_error = None;
        (* offline: the writer counters live in the owning process *)
        wal_appends = 0;
        wal_fsyncs = 0;
      },
      wal_end )

type deliveries = {
  pending : Record.fab_route list;
  dead_letters : (Record.fab_route * Deadletter.cause * float) list;
}

let deliveries_of (st : state) =
  {
    pending = List.map snd (sorted_bindings st.pending);
    dead_letters = List.map (fun (_, d) -> (d.route, d.cause, d.at)) (sorted_bindings st.dead);
  }

let deliveries ~dir =
  let* snap, lsn = read_meta dir in
  let* st, (_ : int), (_ : recovery) = replay_dir ~dir ~snap ~lsn ~redo:no_redo in
  Ok (deliveries_of st)

let state_keys t =
  let d = deliveries_of t.st in
  ( List.map (fun (r : Record.fab_route) -> (r.Record.daemon, r.Record.seq)) d.pending,
    List.map
      (fun ((r : Record.fab_route), cause, _) ->
        (r.Record.daemon, r.Record.seq, Deadletter.cause_tag cause))
      d.dead_letters )

let certify t =
  let stor = storage t in
  let rec each = function
    | [] -> Ok ()
    | name :: rest -> (
      let q = Expr.Extent name in
      let* (_ : Plancheck.vetted) =
        Result.map_error (fun e -> Printf.sprintf "vet of extent %s: %s" name e)
          (Plancheck.vet stor q)
      in
      let* flat =
        Result.map_error (fun e -> Printf.sprintf "flattened read of %s: %s" name e)
          (Eval.query_value stor q)
      in
      match Naive.eval stor q with
      | exception Failure e | exception Invalid_argument e ->
        Error (Printf.sprintf "naive read of %s: %s" name e)
      | naive ->
        if Value.equal flat naive then each rest
        else
          Error
            (Printf.sprintf
               "recovered extent %s diverges between flattened and naive evaluation" name))
  in
  each (Storage.extents stor)

let release t =
  Storage.set_journal (storage t) None;
  Mirror.set_feedback_hook t.mir None;
  (try Wal.close t.wal with Sys_error _ -> ());
  t.group <- None;
  t.closed <- true

let close t =
  if not t.closed then begin
    (* A failed close-time checkpoint loses nothing: every record is
       still in the log (plus the last snapshot), so the
       next open replays it. *)
    (match checkpoint t with Ok () | (Error (_ : string)) -> ());
    release t
  end

let abandon t = if not t.closed then release t

(* {1 The delivery journal} *)

let journal t =
  let event point r =
    log_record t r;
    Faults.crash_hit point
  in
  {
    Orchestrator.routed =
      (fun daemon (d : Bus.delivery) ->
        event "fabric.route"
          (Record.Fab_route
             { Record.daemon; seq = d.Bus.seq; message = d.Bus.message; attempts = d.Bus.attempts }));
    settled =
      (fun daemon d -> event "fabric.done" (Record.Fab_done { daemon; seq = d.Bus.seq }));
    dead =
      (fun { Deadletter.daemon; delivery; cause; at } ->
        event "fabric.dead" (Record.Fab_dead { daemon; seq = delivery.Bus.seq; cause; at }));
    redelivered =
      (fun e ->
        event "fabric.redeliver"
          (Record.Fab_redeliver
             { daemon = e.Deadletter.daemon; seq = e.Deadletter.delivery.Bus.seq }));
    (* A crash leaves either the delivery pending with no effects, or
       done with all of them — never effects without the [Fab_done]. *)
    atomically =
      (fun f ->
        atomically t f;
        Faults.crash_hit "fabric.settled");
    abandon = (fun () -> abandon t);
    close = (fun () -> close t);
  }

let orchestrator ?daemons ?clock ?seed ?config t =
  let orch = Orchestrator.create ?daemons ?clock ?seed ?config ~journal:(journal t) () in
  let ctx = Orchestrator.ctx orch in
  (* Rebuild the metadata store and the dictionary from their
     histories first, then re-materialize pending deliveries on the
     bus and dead letters in the queue.  The store and dictionary
     hooks go in only afterwards, [Bus.inject] bypasses the route hook
     and [adopt_dead_letter] the journal: replaying {e from} the log
     must not write back into it. *)
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        match r with
        | Record.Store_op op ->
          Store.apply ctx.Daemon.store op;
          Ok ()
        | Record.Dict_op op -> (
          match Dictionary.apply ctx.Daemon.dict op with
          | () -> Ok ()
          | exception (Invalid_argument _ | Not_found) ->
            Error ("journal recovery: cannot replay " ^ Record.describe r))
        | _ -> Ok ())
      (Ok ()) (List.rev t.st.side)
  in
  Store.set_hook ctx.Daemon.store (Some (store_journal t));
  Dictionary.set_hook ctx.Daemon.dict (Some (fun op -> log_record t (Record.Dict_op op)));
  let bus = ctx.Daemon.bus in
  let d = deliveries_of t.st in
  List.iter
    (fun (fr : Record.fab_route) ->
      ignore
        (Bus.inject bus ~name:fr.Record.daemon ~seq:fr.Record.seq ~attempts:fr.Record.attempts
           fr.Record.message))
    d.pending;
  List.iter
    (fun ((fr : Record.fab_route), cause, at) ->
      Bus.reserve bus ~seq:fr.Record.seq;
      Orchestrator.adopt_dead_letter orch
        {
          Deadletter.daemon = fr.Record.daemon;
          delivery =
            {
              Bus.seq = fr.Record.seq;
              message = fr.Record.message;
              attempts = fr.Record.attempts;
              deadline = None;
            };
          cause;
          at;
        })
    d.dead_letters;
  Ok orch
