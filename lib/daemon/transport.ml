(* The wire protocol between the orchestrator and a worker process:
   one {!Mirror_util.Codec} frame per request or reply, its payload a
   tag byte plus fields in the log's codec. *)

module Codec = Mirror_util.Codec

type write = Store_op of Store.op | Dict_op of Dictionary.op

type request =
  | Sync of write
  | Deliver of { seq : int; daemon : string; message : Bus.message }

type reply =
  | Op of write
  | Pub of Bus.message
  | Done of int * float
  | Fail of int * float * string

exception Bad = Codec.Bad

(* A write carries the log's own tags (Record's [Store_op] and
   [Dict_op]). *)
let add_write buf = function
  | Store_op op ->
    Buffer.add_char buf 'N';
    Store.add_op buf op
  | Dict_op op ->
    Buffer.add_char buf 'E';
    Dictionary.add_op buf op

let read_write c =
  match Codec.read_char c with
  | 'N' -> Store_op (Store.read_op c)
  | 'E' -> Dict_op (Dictionary.read_op c)
  | ch -> raise (Bad (Printf.sprintf "unknown write %C" ch))

let encode tag add =
  let buf = Buffer.create 64 in
  Buffer.add_char buf tag;
  add buf;
  Buffer.contents buf

let encode_request = function
  | Sync w -> encode 'S' (fun buf -> add_write buf w)
  | Deliver { seq; daemon; message } ->
    encode 'D' (fun buf ->
        Codec.add_int buf seq;
        Codec.add_str buf daemon;
        Bus.add_message buf message)

let decode_request =
  Codec.read_all (fun c ->
      match Codec.read_char c with
      | 'S' -> Sync (read_write c)
      | 'D' ->
        let seq = Codec.read_int c in
        let daemon = Codec.read_str c in
        Deliver { seq; daemon; message = Bus.read_message c }
      | ch -> raise (Bad (Printf.sprintf "unknown request %C" ch)))

let encode_reply = function
  | Op w -> encode 'O' (fun buf -> add_write buf w)
  | Pub m -> encode 'P' (fun buf -> Bus.add_message buf m)
  | Done (seq, cpu) ->
    encode 'K' (fun buf ->
        Codec.add_int buf seq;
        Codec.add_float buf cpu)
  | Fail (seq, cpu, text) ->
    encode 'F' (fun buf ->
        Codec.add_int buf seq;
        Codec.add_float buf cpu;
        Codec.add_str buf text)

let decode_reply =
  Codec.read_all (fun c ->
      match Codec.read_char c with
      | 'O' -> Op (read_write c)
      | 'P' -> Pub (Bus.read_message c)
      | 'K' ->
        let seq = Codec.read_int c in
        Done (seq, Codec.read_float c)
      | 'F' ->
        let seq = Codec.read_int c in
        let cpu = Codec.read_float c in
        Fail (seq, cpu, Codec.read_str c)
      | ch -> raise (Bad (Printf.sprintf "unknown reply %C" ch)))

(* {1 Channel IO}

   Writers flush per frame: a frame is the unit of progress, and the
   peer's select loop must see it as soon as it exists.  The worker
   maps EOF to [None]: the orchestrator went away. *)

let send oc payload =
  output_string oc (Codec.frame payload);
  flush oc

let send_request oc r = send oc (encode_request r)
let send_reply oc r = send oc (encode_reply r)
let recv_request ic = Option.map decode_request (Codec.input_frame ic)
