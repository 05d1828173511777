module Codec = Mirror_util.Codec

type t = {
  pid : int;
  rfd : Unix.file_descr;  (* replies, non-blocking (see [read]) *)
  oc : out_channel;  (* requests *)
  buf : Buffer.t;  (* reply bytes not yet framed *)
}

let pid p = p.pid
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [close_out] would leave the channel open (and registered for the
   at-exit flush) if the flush hits a dead worker's pipe;
   [close_out_noerr] unregisters it regardless. *)
let close p =
  close_quiet p.rfd;
  close_out_noerr p.oc

let spawn ~siblings child =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    (* Drop the parent-side ends of every sibling: a copy held here
       would keep a sibling's pipes open after it (or the parent) dies,
       hiding the EOF that is the crash signal. *)
    List.iter close siblings;
    let code =
      try child (Unix.in_channel_of_descr req_r) (Unix.out_channel_of_descr rep_w)
      with _ -> 71
    in
    (* Never return into the parent's code, and never flush inherited
       buffers: [_exit], not [exit]. *)
    Unix._exit code
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    Unix.set_nonblock rep_r;
    { pid; rfd = rep_r; oc = Unix.out_channel_of_descr req_w; buf = Buffer.create 4096 }

let send p req =
  match Transport.send_request p.oc req with
  | () -> true
  | exception Sys_error _ -> false

(* Complete frames out of [buf]; a torn last frame stays buffered. *)
let frames buf =
  let s = Buffer.contents buf in
  let rec go pos acc =
    match Codec.unframe s pos with
    | Codec.Frame (payload, next) -> go next (Transport.decode_reply payload :: acc)
    | Codec.Cut _ ->
      Buffer.clear buf;
      Buffer.add_substring buf s pos (String.length s - pos);
      List.rev acc
  in
  go 0 []

(* Bytes stay buffered here, never in an [in_channel]: select must only
   report an fd ready when a read would actually return data. *)
let read p =
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read p.rfd chunk 0 (Bytes.length chunk) with
    | 0 -> true
    | n ->
      Buffer.add_subbytes p.buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
  in
  if drain () then None else Some (frames p.buf)

let wait procs timeout =
  match Unix.select (List.map (fun p -> p.rfd) procs) [] [] timeout with
  | readable, _, _ -> List.filter (fun p -> List.mem p.rfd readable) procs
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let kill p = try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()
let reap p = try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ()

(* EOF on its request pipe tells an idle worker to exit; closing the
   reply pipe too means a worker still writing replies dies on the
   broken pipe instead of blocking the wait. *)
let quit p =
  close p;
  reap p
