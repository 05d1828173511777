module Value = Mirror_core.Value

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

(* [s] with its bytes from [from] on escaped, or [s] itself when none
   of them needs it *)
let escape_from from s =
  let n = String.length s in
  let rec first_special i =
    if i = n then n else match s.[i] with '\\' | '\n' -> i | _ -> first_special (i + 1)
  in
  let start = first_special from in
  if start = n then s
  else begin
    let buf = Buffer.create (n + 16) in
    Buffer.add_substring buf s 0 start;
    for i = start to n - 1 do
      match s.[i] with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c
    done;
    Buffer.contents buf
  end

let escape s = escape_from 0 s

let kind = function
  | Serve.Admission_refused _ -> "admission"
  | Serve.Breaker_open _ -> "breaker-open"
  | Serve.Bad_request _ -> "bad-request"
  | Serve.Exec_error _ -> "exec"

let message = function
  | Serve.Admission_refused m | Serve.Bad_request m | Serve.Exec_error m -> m
  | Serve.Breaker_open s -> Printf.sprintf "retry in %.3gs" s

let render_error rid e = Printf.sprintf "%d err %s: %s" rid (kind e) (escape (message e))

(* [<rid> <status> v<version> <payload>], built in one buffer and
   escaped in place of a copy when the payload needs it *)
let render_payload rid status version write =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Int.to_string rid);
  Buffer.add_char buf ' ';
  Buffer.add_string buf status;
  Buffer.add_string buf " v";
  Buffer.add_string buf (Int.to_string version);
  Buffer.add_char buf ' ';
  let from = Buffer.length buf in
  write buf;
  escape_from from (Buffer.contents buf)

let render_reply rid = function
  | Ok (Serve.Value { value; cached; version }) ->
    render_payload rid (if cached then "hit" else "ok") version (fun buf -> Value.to_buffer buf value)
  | Ok (Serve.Executed { version; outcomes }) ->
    render_payload rid "ok" version (fun buf ->
        Mirror_util.Stringx.add_list buf "; " (Buffer.add_string buf) outcomes)
  | Ok (Serve.Pinned v) -> Printf.sprintf "%d ok pinned v%d" rid v
  | Ok Serve.Unpinned -> Printf.sprintf "%d ok unpinned" rid
  | Error e -> render_error rid e

let render_refusal e = render_error 0 e

let render_stats (s : Serve.stats) =
  Printf.sprintf
    "0 ok stats sessions=%d peak=%d served=%d refused=%d breaker_refused=%d cache_hits=%d \
     cache_misses=%d hit_rate=%.3f versions=%d published=%d collected=%d batches=%d writes=%d"
    s.Serve.sessions_open s.Serve.sessions_peak s.Serve.served s.Serve.refused
    s.Serve.breaker_open_refusals s.Serve.cache.Qcache.hits s.Serve.cache.Qcache.misses
    (Qcache.hit_rate s.Serve.cache)
    s.Serve.versions_live s.Serve.versions_published s.Serve.versions_collected s.Serve.batches
    s.Serve.writes
