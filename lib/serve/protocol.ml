module Value = Mirror_core.Value
module Atom = Mirror_bat.Atom

type command = Req of Serve.request | Stats | Quit

let parse line =
  let line = String.trim line in
  let word, rest =
    match String.index_opt line ' ' with
    | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> (line, "")
  in
  match (String.lowercase_ascii word, rest) with
  | "query", "" -> Error "query needs an expression"
  | "query", src -> Ok (Req (Serve.Query src))
  | "exec", "" -> Error "exec needs a statement program"
  | "exec", src -> Ok (Req (Serve.Exec src))
  | "pin", "" -> Ok (Req Serve.Pin)
  | "unpin", "" -> Ok (Req Serve.Unpin)
  | "stats", "" -> Ok Stats
  | "quit", "" -> Ok Quit
  | ("pin" | "unpin" | "stats" | "quit"), _ -> Error (word ^ " takes no argument")
  | "", _ -> Error "empty request"
  | w, _ -> Error ("unknown request " ^ w)

(* {1 Escaping in place} *)

(* Bytes of [b] in [from, n) that escape to two bytes *)
let specials b from n =
  let k = ref 0 in
  for i = from to n - 1 do
    match Bytes.unsafe_get b i with '\\' | '\n' -> incr k | _ -> ()
  done;
  !k

(* Escape [b]'s bytes [from, n), which hold [k] specials, in place:
   [b] has room for [n + k] bytes, and the bytes move right from the
   end, so each is read before anything overwrites it. *)
let expand b from n k =
  let w = ref (n + k) in
  for i = n - 1 downto from do
    match Bytes.unsafe_get b i with
    | '\\' ->
      w := !w - 2;
      Bytes.unsafe_set b !w '\\';
      Bytes.unsafe_set b (!w + 1) '\\'
    | '\n' ->
      w := !w - 2;
      Bytes.unsafe_set b !w '\\';
      Bytes.unsafe_set b (!w + 1) 'n'
    | c ->
      decr w;
      Bytes.unsafe_set b !w c
  done

let escape s =
  let n = String.length s in
  match specials (Bytes.unsafe_of_string s) 0 n with
  | 0 -> s
  | k ->
    let b = Bytes.create (n + k) in
    Bytes.blit_string s 0 b 0 n;
    expand b 0 n k;
    Bytes.unsafe_to_string b

(* {1 Reply lines} *)

(* A line is rendered into [text], then copied once into [bytes],
   escaped there from the payload on, and ended with a newline: the
   [len] bytes a socket write sends as they are.  Both buffers are
   reused from line to line. *)
type line = { text : Buffer.t; mutable bytes : Bytes.t; mutable len : int }

let line () = { text = Buffer.create 4096; bytes = Bytes.create 4096; len = 0 }
let bytes l = l.bytes
let length l = l.len

(* past this, a line's buffers go back to their first size once sent:
   one huge reply does not pin its memory for the server's life *)
let keep_bytes = 1 lsl 20

let start l =
  if Buffer.length l.text > keep_bytes then Buffer.reset l.text else Buffer.clear l.text;
  if Bytes.length l.bytes > keep_bytes then l.bytes <- Bytes.create 4096

(* [text] into [bytes], escaped from [from] on, with its newline *)
let seal l from =
  let n = Buffer.length l.text in
  if Bytes.length l.bytes <= n then l.bytes <- Bytes.create (max (n + 1) (2 * Bytes.length l.bytes));
  Buffer.blit l.text 0 l.bytes 0 n;
  let k = specials l.bytes from n in
  if k > 0 then begin
    if Bytes.length l.bytes <= n + k then l.bytes <- Bytes.extend l.bytes 0 (n + k + 1 - Bytes.length l.bytes);
    expand l.bytes from n k
  end;
  Bytes.unsafe_set l.bytes (n + k) '\n';
  l.len <- n + k + 1

let kind = function
  | Serve.Admission_refused _ -> "admission"
  | Serve.Breaker_open _ -> "breaker-open"
  | Serve.Bad_request _ -> "bad-request"
  | Serve.Exec_error _ -> "exec"

let message = function
  | Serve.Admission_refused m | Serve.Bad_request m | Serve.Exec_error m -> m
  | Serve.Breaker_open s -> Printf.sprintf "retry in %.3gs" s

let error_into l rid e =
  start l;
  Atom.add_int l.text rid;
  Buffer.add_string l.text " err ";
  Buffer.add_string l.text (kind e);
  Buffer.add_string l.text ": ";
  let from = Buffer.length l.text in
  Buffer.add_string l.text (message e);
  seal l from

(* [<rid> <status> v<version>] *)
let status_into l rid status version =
  start l;
  Atom.add_int l.text rid;
  Buffer.add_char l.text ' ';
  Buffer.add_string l.text status;
  Buffer.add_string l.text " v";
  Atom.add_int l.text version

let reply_into l rid = function
  | Ok (Serve.Value { value; cached; version }) ->
    status_into l rid (if cached then "hit" else "ok") version;
    Buffer.add_char l.text ' ';
    let from = Buffer.length l.text in
    Value.to_buffer l.text value;
    seal l from
  | Ok (Serve.Executed { version; outcomes }) ->
    status_into l rid "ok" version;
    Buffer.add_char l.text ' ';
    let from = Buffer.length l.text in
    Mirror_util.Stringx.add_list l.text "; " (Buffer.add_string l.text) outcomes;
    seal l from
  | Ok (Serve.Pinned v) ->
    status_into l rid "ok pinned" v;
    seal l (Buffer.length l.text)
  | Ok Serve.Unpinned ->
    start l;
    Atom.add_int l.text rid;
    Buffer.add_string l.text " ok unpinned";
    seal l (Buffer.length l.text)
  | Error e -> error_into l rid e

let refusal_into l e = error_into l 0 e

let render_stats (s : Serve.stats) =
  Printf.sprintf
    "0 ok stats sessions=%d peak=%d served=%d refused=%d breaker_refused=%d cache_hits=%d \
     cache_misses=%d hit_rate=%.3f versions=%d published=%d collected=%d batches=%d writes=%d"
    s.Serve.sessions_open s.Serve.sessions_peak s.Serve.served s.Serve.refused
    s.Serve.breaker_open_refusals s.Serve.cache.Qcache.hits s.Serve.cache.Qcache.misses
    (Qcache.hit_rate s.Serve.cache)
    s.Serve.versions_live s.Serve.versions_published s.Serve.versions_collected s.Serve.batches
    s.Serve.writes

let stats_into l s =
  start l;
  Buffer.add_string l.text (render_stats s);
  seal l (Buffer.length l.text)

(* the line without its newline, for callers that want a string *)
let rendered into =
  let l = line () in
  into l;
  Bytes.sub_string l.bytes 0 (l.len - 1)

let render_reply rid reply = rendered (fun l -> reply_into l rid reply)
let render_refusal e = rendered (fun l -> refusal_into l e)
