(* Line-framed wire protocol between the orchestrator and a worker
   process.  Same discipline as lib/serve's Protocol: one frame per
   line, fields separated by single spaces, every field escaped so
   arbitrary bytes (marshalled store ops, exception texts with
   newlines) survive the trip. *)

type request =
  | Sync of string
  | Deliver of { seq : int; daemon : string; message : Bus.message }

type reply =
  | Op of string
  | Pub of Bus.message
  | Done of int * float
  | Fail of int * float * string

(* {1 Field escaping}

   Extends lib/serve's newline escaping with '\s' for the field
   separator, so a field can carry any byte sequence. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | ' ' -> Buffer.add_string buf "\\s"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

exception Bad of string

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\\' ->
      if !i + 1 >= n then raise (Bad "dangling escape");
      (match s.[!i + 1] with
      | '\\' -> Buffer.add_char buf '\\'
      | 'n' -> Buffer.add_char buf '\n'
      | 's' -> Buffer.add_char buf ' '
      | c -> raise (Bad (Printf.sprintf "unknown escape \\%c" c)));
      incr i
    | ' ' -> raise (Bad "unescaped separator in field")
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let fields line = String.split_on_char ' ' line |> List.map unescape

let int_field name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Bad (Printf.sprintf "bad %s field %S" name s))

let float_field name s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Bad (Printf.sprintf "bad %s field %S" name s))

(* {1 Framing} *)

let add_message buf (m : Bus.message) =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (escape m.Bus.topic);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int m.Bus.subject);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (List.length m.Bus.payload));
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (escape k);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (escape v))
    m.Bus.payload

(* Strictly left-to-right message parse over the remaining fields;
   returns the message and expects no leftovers. *)
let parse_message what = function
  | topic :: subject :: count :: rest ->
    let subject = int_field "subject" subject in
    let n = int_field "payload count" count in
    let rec pairs k acc rest =
      if k = 0 then
        match rest with
        | [] -> List.rev acc
        | _ -> raise (Bad (Printf.sprintf "trailing fields in %s frame" what))
      else
        match rest with
        | k' :: v :: rest -> pairs (k - 1) ((k', v) :: acc) rest
        | _ -> raise (Bad (Printf.sprintf "truncated payload in %s frame" what))
    in
    { Bus.topic; subject; payload = pairs n [] rest }
  | _ -> raise (Bad (Printf.sprintf "truncated %s frame" what))

let request_to_line = function
  | Sync blob -> "sync " ^ escape blob
  | Deliver { seq; daemon; message } ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf "deliver ";
    Buffer.add_string buf (string_of_int seq);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (escape daemon);
    add_message buf message;
    Buffer.contents buf

let request_of_line line =
  match fields line with
  | [ "sync"; blob ] -> Ok (Sync blob)
  | "deliver" :: seq :: daemon :: rest ->
    (try
       Ok
         (Deliver
            {
              seq = int_field "seq" seq;
              daemon;
              message = parse_message "deliver" rest;
            })
     with Bad m -> Error m)
  | verb :: _ -> Error (Printf.sprintf "unknown request frame %S" verb)
  | [] -> Error "empty request frame"
  | exception Bad m -> Error m

let reply_to_line = function
  | Op blob -> "op " ^ escape blob
  | Pub m ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf "pub";
    add_message buf m;
    Buffer.contents buf
  | Done (seq, cpu) -> Printf.sprintf "done %d %h" seq cpu
  | Fail (seq, cpu, msg) -> Printf.sprintf "fail %d %h %s" seq cpu (escape msg)

let reply_of_line line =
  match fields line with
  | [ "op"; blob ] -> Ok (Op blob)
  | "pub" :: rest -> ( try Ok (Pub (parse_message "pub" rest)) with Bad m -> Error m)
  | [ "done"; seq; cpu ] -> (
    try Ok (Done (int_field "seq" seq, float_field "cpu" cpu)) with Bad m -> Error m)
  | [ "fail"; seq; cpu; msg ] -> (
    try Ok (Fail (int_field "seq" seq, float_field "cpu" cpu, msg))
    with Bad m -> Error m)
  | verb :: _ -> Error (Printf.sprintf "unknown reply frame %S" verb)
  | [] -> Error "empty reply frame"
  | exception Bad m -> Error m

(* {1 Channel IO}

   Writers flush per frame: a frame is the unit of progress, and the
   peer's select loop must see it as soon as it exists.  The worker
   maps EOF to [None]: the orchestrator went away. *)

let write_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let send_request oc r = write_line oc (request_to_line r)
let send_reply oc r = write_line oc (reply_to_line r)

let recv_request ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
    match request_of_line line with
    | Ok r -> Some r
    | Error m -> raise (Bad ("request: " ^ m)))
