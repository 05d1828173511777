type verdict = Handled | Failed of string | Fatal of exn

type outcome = {
  writes : Transport.write list;
  pubs : Bus.message list;
  cpu : float;
  verdict : verdict;
}

type exit_reason = Closed | Fatal of exn

(* Process deaths, not daemon failures: in process the orchestrator
   requeues and re-raises, in a worker the process dies without a
   reply so the orchestrator sees EOF, exactly as if it were killed. *)
let is_fatal = function
  | Faults.Crash _ | Out_of_memory | Stack_overflow -> true
  | _ -> false

let apply (ctx : Daemon.ctx) = function
  | Transport.Store_op op -> Store.apply ctx.Daemon.store op
  | Transport.Dict_op op -> Dictionary.apply ctx.Daemon.dict op

let handle (ctx : Daemon.ctx) (d : Daemon.t) message =
  let writes = ref [] in
  let capture w = writes := w :: !writes in
  Store.set_hook ctx.Daemon.store (Some (fun op -> capture (Transport.Store_op op)));
  Dictionary.set_hook ctx.Daemon.dict (Some (fun op -> capture (Transport.Dict_op op)));
  let t0 = Sys.time () in
  let pubs, (verdict : verdict) =
    match d.Daemon.handle ctx message with
    | out -> (out, Handled)
    | exception e when is_fatal e -> ([], Fatal e)
    | exception e -> ([], Failed (Printexc.to_string e))
  in
  let cpu = Sys.time () -. t0 in
  Store.set_hook ctx.Daemon.store None;
  Dictionary.set_hook ctx.Daemon.dict None;
  { writes = List.rev !writes; pubs; cpu; verdict }

let serve ic oc daemons ~(ctx : Daemon.ctx) =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (d : Daemon.t) -> Hashtbl.replace by_name d.Daemon.name d) daemons;
  let send = Transport.send_reply oc in
  let rec loop () =
    match Transport.recv_request ic with
    | None -> Closed
    | Some (Transport.Sync w) ->
      apply ctx w;
      loop ()
    | Some (Transport.Deliver { seq; daemon; message }) -> (
      match Hashtbl.find_opt by_name daemon with
      | None ->
        send (Transport.Fail (seq, 0.0, "daemon not hosted here"));
        loop ()
      | Some d -> (
        let o = handle ctx d message in
        match o.verdict with
        | Fatal e -> Fatal e
        | Handled | Failed _ ->
          (* A failed delivery's writes travel too: they are discarded,
             but tell the orchestrator this replica is now dirty. *)
          List.iter (fun w -> send (Transport.Op w)) o.writes;
          (match o.verdict with
          | Failed text -> send (Transport.Fail (seq, o.cpu, text))
          | _ ->
            List.iter (fun m -> send (Transport.Pub m)) o.pubs;
            send (Transport.Done (seq, o.cpu)));
          loop ()))
  in
  loop ()
