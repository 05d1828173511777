(* Socket clients for the serve front end ([Mirror_serve.Server]): one
   connection per session, one request line out and one reply line back
   per request (see [Mirror_serve.Protocol]).  Both loops multiplex every
   connection from one thread with [select]. *)

module B = Benchstat

type conn = {
  id : int;
  fd : Unix.file_descr;
  input : Buffer.t;  (** bytes read but not yet forming a full line *)
  mutable dead : bool;
  inflight : (int * float * float) Queue.t;  (** (tag, due, sent), oldest first *)
}

(* What the benchmark keeps of each reply: its timing and outcome, and
   a digest of the payload (the result value or the write's outcomes). *)
type reply = {
  client : int;
  tag : int;  (** caller's request index within its client stream *)
  record : B.record;
  digest : Digest.t;
}

let now = Unix.gettimeofday

let connect ~socket ~timeout id =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok { id; fd; input = Buffer.create 4096; dead = false; inflight = Queue.create () }
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      if now () > deadline then
        Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
      else begin
        Unix.sleepf 0.005;
        go ()
      end
  in
  go ()

let close c =
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* [<id> ok|hit v<version> <payload>] or [<id> err <kind>: <message>]. *)
let parse_reply line =
  let word start =
    let stop = Option.value ~default:(String.length line) (String.index_from_opt line start ' ') in
    (String.sub line start (stop - start), min (stop + 1) (String.length line))
  in
  let _id, i = word 0 in
  let version v =
    if String.length v > 1 && v.[0] = 'v' then int_of_string_opt (String.sub v 1 (String.length v - 1))
    else None
  in
  match word i with
  | "err", j ->
    let kind, _ = word j in
    let outcome =
      if kind = "admission:" || kind = "breaker-open:" then B.Refused else B.Error_reply
    in
    (outcome, line)
  | ("ok" | "hit"), j -> (
    let v, k = word j in
    match version v with
    | Some _ -> (B.Ok_reply, String.sub line k (String.length line - k))
    | None -> (B.Error_reply, line))
  | _ -> (B.Error_reply, line)

(* A whole reply line arrived on [c]: pair it with the oldest request
   in flight there (the server answers each session in order). *)
let complete c line t acc =
  match Queue.take_opt c.inflight with
  | None -> acc
  | Some (tag, due, sent) ->
    let outcome, payload = parse_reply line in
    { client = c.id; tag; record = { B.due; sent; done_ = t; outcome }; digest = Digest.string payload }
    :: acc

let fail_inflight c outcome t acc =
  let acc = ref acc in
  Queue.iter
    (fun (tag, due, sent) ->
      acc :=
        {
          client = c.id;
          tag;
          record = { B.due; sent; done_ = t; outcome };
          digest = Digest.string "";
        }
        :: !acc)
    c.inflight;
  Queue.clear c.inflight;
  !acc

let buf = Bytes.create 65536

(* Read what is available on [c] and complete every whole line. *)
let read_replies c acc =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> acc
  | exception Unix.Unix_error _ ->
    let acc = fail_inflight c B.Socket_error (now ()) acc in
    close c;
    acc
  | 0 ->
    let acc = fail_inflight c B.Socket_error (now ()) acc in
    close c;
    acc
  | n ->
    let t = now () in
    Buffer.add_subbytes c.input buf 0 n;
    let s = Buffer.contents c.input in
    let rec go start acc =
      match String.index_from_opt s start '\n' with
      | Some i -> go (i + 1) (complete c (String.sub s start (i - start)) t acc)
      | None ->
        Buffer.clear c.input;
        Buffer.add_substring c.input s start (String.length s - start);
        acc
    in
    go 0 acc

let send c ~tag ~due line acc =
  let t = now () in
  if c.dead then
    {
      client = c.id;
      tag;
      record = { B.due; sent = t; done_ = t; outcome = B.Socket_error };
      digest = Digest.string "";
    }
    :: acc
  else
    match write_all c.fd (line ^ "\n") with
    | () ->
      Queue.add (tag, due, t) c.inflight;
      acc
    | exception Unix.Unix_error _ ->
      Queue.add (tag, due, t) c.inflight;
      let acc = fail_inflight c B.Socket_error t acc in
      close c;
      acc

(* Wait up to [wait] seconds for replies on any live connection. *)
let poll conns ~wait acc =
  let live = List.filter (fun c -> not c.dead) conns in
  if live = [] then acc
  else
    match Unix.select (List.map (fun c -> c.fd) live) [] [] (Float.max 0. wait) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> acc
    | readable, _, _ ->
      List.fold_left
        (fun acc c -> if List.memq c.fd readable then read_replies c acc else acc)
        acc live

let inflight conns = List.exists (fun c -> not (Queue.is_empty c.inflight)) conns

(* Collect the stragglers after the measured window; whatever has not
   answered [timeout] seconds later counts as timed out. *)
let settle conns ~timeout acc =
  let deadline = now () +. timeout in
  let rec go acc =
    if inflight conns && now () < deadline then go (poll conns ~wait:(deadline -. now ()) acc)
    else acc
  in
  let acc = go acc in
  List.fold_left (fun acc c -> fail_inflight c B.Timed_out (now ()) acc) acc conns

(* Closed loop: each connection sends its next request only once the
   previous reply is in, until [until].  [next client] gives the
   client's next (tag, line). *)
let closed_loop conns ~next ~until ~timeout =
  let issue c acc =
    let tag, line = next c.id in
    let t = now () in
    send c ~tag ~due:t line acc
  in
  let acc = List.fold_left (fun acc c -> issue c acc) [] conns in
  let rec go acc =
    if now () >= until then acc
    else begin
      let acc' = poll conns ~wait:(until -. now ()) acc in
      (* every connection whose request just completed goes again *)
      let acc' =
        List.fold_left
          (fun acc c ->
            if (not c.dead) && Queue.is_empty c.inflight && now () < until then issue c acc
            else acc)
          acc' conns
      in
      go acc'
    end
  in
  settle conns ~timeout (go acc)

(* Open loop: [schedule] lists (due offset in seconds, client, tag,
   line) in due order.  A request is sent once due whatever is still in
   flight, and its latency counts from the due time. *)
let open_loop conns ~schedule ~start ~timeout =
  let conn_of = Array.of_list conns in
  let n = Array.length schedule in
  let rec go i acc =
    if i >= n then acc
    else
      let t = now () in
      let due_off, client, tag, line = schedule.(i) in
      let due = start +. due_off in
      if due <= t then go (i + 1) (send conn_of.(client) ~tag ~due line acc)
      else go i (poll conns ~wait:(Float.min (due -. t) 0.05) acc)
  in
  settle conns ~timeout (go 0 [])

(* One control line (e.g. [stats]) on an idle connection, answered
   synchronously. *)
let control c line ~timeout =
  if c.dead then None
  else begin
    write_all c.fd (line ^ "\n");
    let deadline = now () +. timeout in
    let rec wait () =
      let s = Buffer.contents c.input in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.clear c.input;
        Buffer.add_substring c.input s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)
      | None when now () > deadline -> None
      | None -> (
        match Unix.select [ c.fd ] [] [] (deadline -. now ()) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | [], _, _ -> wait ()
        | _ -> (
          match Unix.read c.fd buf 0 (Bytes.length buf) with
          | 0 | (exception Unix.Unix_error _) -> None
          | k ->
            Buffer.add_subbytes c.input buf 0 k;
            wait ()))
    in
    wait ()
  end
