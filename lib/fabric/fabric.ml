module Bus = Mirror_daemon.Bus
module Store = Mirror_daemon.Store
module Deadletter = Mirror_daemon.Deadletter
module Orchestrator = Mirror_daemon.Orchestrator
module Faults = Mirror_daemon.Faults
module Record = Mirror_store.Record

let fab_cause_of = function
  | Deadletter.Failed e -> Record.Fab_failed e
  | Deadletter.Expired s -> Record.Fab_expired s
  | Deadletter.Overflow -> Record.Fab_overflow

let cause_of_fab = function
  | Record.Fab_failed e -> Deadletter.Failed e
  | Record.Fab_expired s -> Deadletter.Expired s
  | Record.Fab_overflow -> Deadletter.Overflow

let fab_route_of name (d : Bus.delivery) =
  {
    Record.daemon = name;
    seq = d.Bus.seq;
    topic = d.Bus.message.Bus.topic;
    subject = d.Bus.message.Bus.subject;
    payload = d.Bus.message.Bus.payload;
    attempts = d.Bus.attempts;
  }

let message_of (fr : Record.fab_route) =
  { Bus.topic = fr.Record.topic; subject = fr.Record.subject; payload = fr.Record.payload }

let journal dl =
  {
    Orchestrator.routed = (fun name d -> Dlog.route dl (fab_route_of name d));
    settled = (fun name d -> Dlog.done_ dl ~daemon:name ~seq:d.Bus.seq);
    dead =
      (fun (e : Deadletter.entry) ->
        Dlog.dead dl ~daemon:e.Deadletter.daemon ~seq:e.Deadletter.delivery.Bus.seq
          ~cause:(fab_cause_of e.Deadletter.cause) ~at:e.Deadletter.at);
    redelivered =
      (fun (e : Deadletter.entry) ->
        Dlog.redeliver dl ~daemon:e.Deadletter.daemon ~seq:e.Deadletter.delivery.Bus.seq);
    (* A crash leaves either the delivery pending with no effects, or
       done with all of them — never effects without the [Fab_done]. *)
    atomically =
      (fun f ->
        Dlog.atomically dl f;
        Faults.crash_hit "fabric.settled");
    sync = (fun () -> Dlog.sync dl);
    abandon = (fun () -> Dlog.abandon dl);
    close = (fun () -> Dlog.close dl);
  }

let ( let* ) = Result.bind

let open_durable ?daemons ?clock ?seed ?config ?checkpoint_every ~dir () =
  let* dl, _ = Dlog.open_ ?checkpoint_every ~dir () in
  let t = Orchestrator.create ?daemons ?clock ?seed ?config ~journal:(journal dl) () in
  let ctx = Orchestrator.ctx t in
  Store.set_journal ctx.Mirror_daemon.Daemon.store
    (Some (fun tag payload -> Dlog.store_op dl ~tag ~payload));
  (* Rebuild the metadata store first (the journal interleaves store
     writes ahead of the delivery records that depend on them), then
     re-materialize pending deliveries on the bus and dead letters in
     the queue.  [Store.replay] suppresses the store's hooks,
     [Bus.inject] bypasses the route hook and [adopt_dead_letter] the
     journal: replaying {e from} the journal must not write back into
     it. *)
  let* () =
    List.fold_left
      (fun acc (tag, payload) ->
        let* () = acc in
        Result.map_error
          (fun e -> Printf.sprintf "journal recovery: store record %S: %s" tag e)
          (Store.replay ctx.Mirror_daemon.Daemon.store tag payload))
      (Ok ()) (Dlog.store_history dl)
  in
  let bus = ctx.Mirror_daemon.Daemon.bus in
  List.iter
    (fun (fr : Record.fab_route) ->
      ignore
        (Bus.inject bus ~name:fr.Record.daemon ~seq:fr.Record.seq
           ~attempts:fr.Record.attempts (message_of fr)))
    (Dlog.pending dl);
  List.iter
    (fun ((fr : Record.fab_route), cause, at) ->
      Bus.reserve bus ~seq:fr.Record.seq;
      Orchestrator.adopt_dead_letter t
        {
          Deadletter.daemon = fr.Record.daemon;
          delivery =
            {
              Bus.seq = fr.Record.seq;
              message = message_of fr;
              attempts = fr.Record.attempts;
              deadline = None;
            };
          cause = cause_of_fab cause;
          at;
        })
    (Dlog.dead_letters dl);
  Ok (t, dl)
