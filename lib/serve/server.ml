module Mirror = Mirror_core.Mirror

type conn = {
  fd : Unix.file_descr;
  session : Serve.session;
  pending : Buffer.t; (* bytes read but not yet forming a full line *)
  mutable closing : bool; (* flush replies, then close *)
}

let write_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off < len then
      match Unix.write_substring fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A write failure means the peer vanished mid-reply; the connection
   is dead either way, so report it to the caller as such. *)
let try_write_line fd line =
  match write_line fd line with () -> true | exception Unix.Unix_error _ -> false

let split_lines pending data =
  Buffer.add_string pending data;
  let s = Buffer.contents pending in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.clear pending;
      Buffer.add_substring pending s start (String.length s - start);
      List.rev acc
  in
  go 0 []

let run ?config ?bindings ?durable ?(stop = fun () -> false) ~socket mir =
  let t = Serve.local ?config ?bindings ?durable mir in
  (* Bind a sibling path and rename it into place only once the socket
     listens: a client that waits for the file to appear can connect
     the moment it does, never into a bound-but-not-listening socket. *)
  let staging = socket ^ ".tmp" in
  List.iter
    (fun p -> try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ())
    [ socket; staging ];
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind listen_fd (Unix.ADDR_UNIX staging);
    Unix.listen listen_fd 16;
    Unix.rename staging socket
  with
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove staging with Sys_error _ -> ());
    Error (Printf.sprintf "cannot listen on %s: %s" socket (Unix.error_message err))
  | () ->
    let conns = ref [] in
    let close_conn c =
      Serve.close_session t c.session;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      conns := List.filter (fun c' -> c' != c) !conns
    in
    let accept_one () =
      match Unix.accept listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, (_ : Unix.sockaddr) -> (
        match Serve.open_session t with
        | Ok session ->
          conns := { fd; session; pending = Buffer.create 256; closing = false } :: !conns
        | Error e ->
          ignore (try_write_line fd (Protocol.render_refusal e) : bool);
          (try Unix.close fd with Unix.Unix_error _ -> ()))
    in
    let handle_line c line =
      if String.trim line <> "" then
        match Protocol.parse line with
        | Error e ->
          ignore (try_write_line c.fd (Protocol.render_refusal (Serve.Bad_request e)) : bool)
        | Ok Protocol.Quit -> c.closing <- true
        | Ok Protocol.Stats ->
          ignore (try_write_line c.fd (Protocol.render_stats (Serve.stats t)) : bool)
        | Ok (Protocol.Req req) -> (
          match Serve.submit t c.session req with
          | Ok (_ : int) -> ()
          | Error e ->
            ignore (try_write_line c.fd (Protocol.render_refusal e) : bool))
    in
    let read_conn c =
      let buf = Bytes.create 4096 in
      match Unix.read c.fd buf 0 4096 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn c
      | 0 -> close_conn c
      | n -> List.iter (handle_line c) (split_lines c.pending (Bytes.sub_string buf 0 n))
    in
    let flush_replies () =
      List.iter
        (fun c ->
          let ok =
            List.for_all
              (fun (rid, reply) -> try_write_line c.fd (Protocol.render_reply rid reply))
              (Serve.replies c.session)
          in
          if not ok || c.closing then close_conn c)
        !conns
    in
    while not (stop ()) do
      match Unix.select (listen_fd :: List.map (fun c -> c.fd) !conns) [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        if List.memq listen_fd readable then accept_one ();
        List.iter
          (fun c -> if List.memq c.fd readable then read_conn c)
          (* the list mutates as dead connections close *)
          (List.filter (fun c -> List.memq c.fd readable) !conns);
        Serve.drain t;
        flush_replies ()
    done;
    List.iter close_conn !conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove socket with Sys_error _ -> ());
    Ok ()
