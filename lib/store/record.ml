module Atom = Mirror_bat.Atom
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Parser = Mirror_core.Parser
module Deadletter = Mirror_daemon.Deadletter
module Dictionary = Mirror_daemon.Dictionary
module Store = Mirror_daemon.Store
module Autoclass = Mirror_mm.Autoclass
module Bus = Mirror_daemon.Bus
module Codec = Mirror_util.Codec

type fab_route = { daemon : string; seq : int; message : Bus.message; attempts : int }

type t =
  | Define of string * Types.t
  | Replace of string * Value.t list
  | Insert of string * Value.t list
  | Delete of string * int list
  | Feedback of { query : string; judgements : (string * bool) list }
  | Store_op of Store.op
  | Dict_op of Dictionary.op
  | Fab_route of fab_route
  | Fab_done of { daemon : string; seq : int }
  | Fab_dead of { daemon : string; seq : int; cause : Deadletter.cause; at : float }
  | Fab_redeliver of { daemon : string; seq : int }
  | Fab_atomic of t list
  | End of int

(* {1 Writer}

   Tagged binary in the shared codec ({!Codec}): one tag character per
   node, then its fields.  The daemon layer's types write themselves
   ({!Store.add_op}, {!Dictionary.add_op}, {!Bus.add_message}), so
   the worker pipe and the log share one encoding. *)

open Codec

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_atom buf = function
  | Atom.Int i ->
    Buffer.add_char buf 'i';
    add_int buf i
  | Atom.Flt f ->
    Buffer.add_char buf 'f';
    add_float buf f
  | Atom.Str s ->
    Buffer.add_char buf 's';
    add_str buf s
  | Atom.Bool b ->
    Buffer.add_char buf 'b';
    add_bool buf b
  | Atom.Oid o ->
    Buffer.add_char buf 'o';
    add_int buf o

let rec add_value buf = function
  | Value.Atom a -> add_atom buf a
  | Value.Tup fields ->
    Buffer.add_char buf 'T';
    add_list buf (add_pair add_str add_value) fields
  | Value.VSet items ->
    Buffer.add_char buf 'S';
    add_list buf add_value items
  | Value.Xv { ext; meta; items } ->
    Buffer.add_char buf 'X';
    add_str buf ext;
    add_list buf add_str meta;
    add_list buf add_value items

(* An extent's records: tag, extent name, then a counted list. *)
let add_named_list buf tag name add items =
  Buffer.add_char buf tag;
  add_str buf name;
  add_list buf add items

let rec encode r =
  let buf = Buffer.create 256 in
  (match r with
  | Define (name, ty) ->
    Buffer.add_char buf 'D';
    add_str buf name;
    add_str buf (Types.to_string ty)
  | Replace (name, rows) -> add_named_list buf 'R' name add_value rows
  | Insert (name, rows) -> add_named_list buf 'I' name add_value rows
  | Delete (name, positions) -> add_named_list buf 'P' name add_int positions
  | Feedback { query; judgements } ->
    Buffer.add_char buf 'F';
    add_str buf query;
    add_list buf (add_pair add_str add_bool) judgements
  | Store_op op ->
    Buffer.add_char buf 'N';
    Store.add_op buf op
  | Dict_op op ->
    Buffer.add_char buf 'E';
    Dictionary.add_op buf op
  | Fab_route { daemon; seq; message; attempts } ->
    Buffer.add_char buf 'Q';
    add_str buf daemon;
    add_int buf seq;
    Bus.add_message buf message;
    add_int buf attempts
  | Fab_done { daemon; seq } ->
    Buffer.add_char buf 'H';
    add_str buf daemon;
    add_int buf seq
  | Fab_dead { daemon; seq; cause; at } ->
    Buffer.add_char buf 'L';
    add_str buf daemon;
    add_int buf seq;
    (match cause with
    | Deadletter.Failed msg ->
      Buffer.add_char buf 'f';
      add_str buf msg
    | Deadletter.Expired st ->
      Buffer.add_char buf 'e';
      add_str buf st
    | Deadletter.Overflow -> Buffer.add_char buf 'o');
    add_float buf at
  | Fab_redeliver { daemon; seq } ->
    Buffer.add_char buf 'B';
    add_str buf daemon;
    add_int buf seq
  | Fab_atomic rs ->
    (* Each constituent record travels length-prefixed in its own
       encoding, so the batch is one WAL frame: a crash can lose the
       whole group or none of it, never a prefix. *)
    Buffer.add_char buf 'A';
    add_list buf (fun buf r -> add_str buf (encode r)) rs
  | End n ->
    Buffer.add_char buf 'Z';
    add_int buf n);
  Buffer.contents buf

(* {1 Reader} *)

(* Tuple labels and structure names repeat in every row of a
   [Replace] or an [Insert]: one copy of each per record, as rows built
   in memory share their literals, keeps a decoded extent as small as
   the live one. *)
let read_name names c =
  let s = read_str c in
  match Hashtbl.find_opt names s with
  | Some s -> s
  | None ->
    Hashtbl.add names s s;
    s

let read_bool c =
  match read_char c with
  | '\000' -> false
  | '\001' -> true
  | ch -> raise (Bad (Printf.sprintf "bad boolean byte %C" ch))

(* The readers over one record's name table are built once per record,
   not partially applied again at every tuple, set and field. *)
let read_value names =
  let name c = read_name names c in
  let rec value c =
    match read_char c with
    | 'i' -> Value.Atom (Atom.Int (read_int c))
    | 'f' -> Value.Atom (Atom.Flt (read_float c))
    | 's' -> Value.Atom (Atom.Str (read_str c))
    | 'b' -> Value.Atom (Atom.Bool (read_bool c))
    | 'o' -> Value.Atom (Atom.Oid (read_int c))
    | 'T' -> Value.Tup (read_list c field)
    | 'S' -> Value.VSet (read_list c value)
    | 'X' ->
      let ext = name c in
      let meta = read_list c name in
      let items = read_list c value in
      Value.Xv { ext; meta; items }
    | ch -> raise (Bad (Printf.sprintf "unknown value tag %C" ch))
  and field c =
    let label = name c in
    (label, value c)
  in
  value

let read_named_list c read =
  let name = read_str c in
  (name, read_list c read)

let rec read_record c =
  match read_char c with
  | 'D' -> (
    let name = read_str c in
    match Parser.parse_type (read_str c) with
    | Ok ty -> Define (name, ty)
    | Error e -> raise (Bad e))
  | 'R' ->
    let name, rows = read_named_list c (read_value (Hashtbl.create 8)) in
    Replace (name, rows)
  | 'I' ->
    let name, rows = read_named_list c (read_value (Hashtbl.create 8)) in
    Insert (name, rows)
  | 'P' ->
    let name, positions = read_named_list c read_int in
    Delete (name, positions)
  | 'F' ->
    let query = read_str c in
    Feedback { query; judgements = read_list c (read_pair read_str read_bool) }
  | 'N' -> Store_op (Store.read_op c)
  | 'E' -> Dict_op (Dictionary.read_op c)
  | 'Q' ->
    let daemon = read_str c in
    let seq = read_int c in
    let message = Bus.read_message c in
    Fab_route { daemon; seq; message; attempts = read_int c }
  | 'H' ->
    let daemon = read_str c in
    Fab_done { daemon; seq = read_int c }
  | 'L' ->
    let daemon = read_str c in
    let seq = read_int c in
    let cause =
      match read_char c with
      | 'f' -> Deadletter.Failed (read_str c)
      | 'e' -> Deadletter.Expired (read_str c)
      | 'o' -> Deadletter.Overflow
      | ch -> raise (Bad (Printf.sprintf "unknown dead-letter cause %C" ch))
    in
    Fab_dead { daemon; seq; cause; at = read_float c }
  | 'B' ->
    let daemon = read_str c in
    Fab_redeliver { daemon; seq = read_int c }
  | 'A' ->
    Fab_atomic
      (read_list c (fun c ->
           match read_all read_record (read_str c) with
           | r -> r
           | exception Bad e -> raise (Bad ("in atomic batch: " ^ e))))
  | 'Z' -> End (read_int c)
  | ch -> raise (Bad (Printf.sprintf "unknown record tag %C" ch))

let decode payload = try Ok (read_all read_record payload) with Bad msg -> Error msg

let describe = function
  | Define (name, ty) -> Printf.sprintf "define %s as %s" name (Types.to_string ty)
  | Replace (name, rows) -> Printf.sprintf "replace %s (%d rows)" name (List.length rows)
  | Insert (name, rows) -> Printf.sprintf "insert into %s (%d rows)" name (List.length rows)
  | Delete (name, positions) ->
    Printf.sprintf "delete from %s (%d rows)" name (List.length positions)
  | Feedback { query; judgements } ->
    Printf.sprintf "feedback %S (%d judgements)" query (List.length judgements)
  | Store_op (Store.O_doc (doc, url)) -> Printf.sprintf "store-op doc %d %S" doc url
  | Store_op (Store.O_segments (doc, segs)) ->
    Printf.sprintf "store-op segments doc %d (%d regions)" doc (List.length segs)
  | Store_op (Store.O_features (doc, space, vectors)) ->
    Printf.sprintf "store-op features %s doc %d (%d vectors)" space doc (Array.length vectors)
  | Store_op (Store.O_model (space, m)) ->
    Printf.sprintf "store-op model %s (k=%d)" space m.Autoclass.k
  | Store_op (Store.O_text (doc, bag)) ->
    Printf.sprintf "store-op text doc %d (%d terms)" doc (List.length bag)
  | Store_op (Store.O_visual (doc, words)) ->
    Printf.sprintf "store-op visual doc %d (%d words)" doc (List.length words)
  | Store_op (Store.O_thesaurus _) -> "store-op thesaurus (rebuild)"
  | Dict_op (Dictionary.Registered { name; owner; _ }) ->
    Printf.sprintf "dict-op register %s by %s" name owner
  | Dict_op (Dictionary.Evolved { name; by; _ }) ->
    Printf.sprintf "dict-op evolve %s by %s" name by
  | Fab_route { daemon; seq; message; _ } ->
    Printf.sprintf "fab-route #%d %s -> %s" seq message.Bus.topic daemon
  | Fab_done { daemon; seq } -> Printf.sprintf "fab-done #%d @ %s" seq daemon
  | Fab_dead { daemon; seq; cause; _ } ->
    Printf.sprintf "fab-dead #%d @ %s (%s)" seq daemon (Deadletter.cause_tag cause)
  | Fab_redeliver { daemon; seq } -> Printf.sprintf "fab-redeliver #%d @ %s" seq daemon
  | Fab_atomic rs -> Printf.sprintf "fab-atomic (%d records)" (List.length rs)
  | End n -> Printf.sprintf "end of snapshot (%d records)" n
