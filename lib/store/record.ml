module Atom = Mirror_bat.Atom
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Parser = Mirror_core.Parser
module Deadletter = Mirror_daemon.Deadletter
module Dictionary = Mirror_daemon.Dictionary
module Store = Mirror_daemon.Store
module Segment = Mirror_mm.Segment
module Autoclass = Mirror_mm.Autoclass

type fab_route = {
  daemon : string;
  seq : int;
  topic : string;
  subject : int;
  payload : (string * string) list;
  attempts : int;
}

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

   Tagged binary: one tag character per node; every integer, length
   and count a zigzag LEB128 varint (seven bits a byte, least
   significant group first, so a small magnitude of either sign takes
   one byte); strings length-prefixed.  Floats are stored as their
   64-bit pattern — [Value] round-trips must be exact, textual
   rendering is not. *)

let add_int buf i =
  let rec go z =
    if z lsr 7 = 0 then Buffer.add_char buf (Char.unsafe_chr z)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (z land 0x7f lor 0x80));
      go (z lsr 7)
    end
  in
  go ((i lsl 1) lxor (i asr (Sys.int_size - 1)))

let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_floats buf a =
  add_int buf (Array.length a);
  Array.iter (add_float buf) a

let add_matrix buf m =
  add_int buf (Array.length m);
  Array.iter (add_floats buf) m

let add_bag buf doc bag =
  add_int buf doc;
  add_int buf (List.length bag);
  List.iter
    (fun (w, tf) ->
      add_str buf w;
      add_float buf tf)
    bag

(* A store op: one sub-tag character, then its fields.  The thesaurus
   travels as a bare rebuild marker ({!Store.op}). *)
let add_store_op buf = function
  | Store.O_doc (doc, url) ->
    Buffer.add_char buf 'd';
    add_int buf doc;
    add_str buf url
  | Store.O_segments (doc, segs) ->
    Buffer.add_char buf 's';
    add_int buf doc;
    add_int buf (List.length segs);
    List.iter
      (fun { Segment.x; y; w; h } -> List.iter (add_int buf) [ x; y; w; h ])
      segs
  | Store.O_features (doc, space, vectors) ->
    Buffer.add_char buf 'f';
    add_int buf doc;
    add_str buf space;
    add_matrix buf vectors
  | Store.O_model (space, m) ->
    Buffer.add_char buf 'm';
    add_str buf space;
    add_int buf m.Autoclass.k;
    add_floats buf m.Autoclass.weights;
    add_matrix buf m.Autoclass.means;
    add_matrix buf m.Autoclass.variances;
    add_float buf m.Autoclass.loglik;
    add_floats buf (Array.of_list m.Autoclass.loglik_trace)
  | Store.O_text (doc, bag) ->
    Buffer.add_char buf 't';
    add_bag buf doc bag
  | Store.O_visual (doc, words) ->
    Buffer.add_char buf 'v';
    add_bag buf doc words
  | Store.O_thesaurus _ -> Buffer.add_char buf 'h'

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
    Buffer.add_char buf (if b then '\001' else '\000')
  | Atom.Oid o ->
    Buffer.add_char buf 'o';
    add_int buf o

let rec add_value buf = function
  | Value.Atom a -> add_atom buf a
  | Value.Tup fields ->
    Buffer.add_char buf 'T';
    add_int buf (List.length fields);
    List.iter
      (fun (label, v) ->
        add_str buf label;
        add_value buf v)
      fields
  | Value.VSet items ->
    Buffer.add_char buf 'S';
    add_int buf (List.length items);
    List.iter (add_value buf) items
  | Value.Xv { ext; meta; items } ->
    Buffer.add_char buf 'X';
    add_str buf ext;
    add_int buf (List.length meta);
    List.iter (add_str buf) meta;
    add_int buf (List.length items);
    List.iter (add_value buf) items

(* An extent's records: tag, extent name, then a counted list. *)
let add_named_list buf tag name add items =
  Buffer.add_char buf tag;
  add_str buf name;
  add_int buf (List.length items);
  List.iter (add buf) items

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
    add_int buf (List.length judgements);
    List.iter
      (fun (url, rel) ->
        add_str buf url;
        Buffer.add_char buf (if rel then '\001' else '\000'))
      judgements
  | Store_op op ->
    Buffer.add_char buf 'N';
    add_store_op buf op
  | Dict_op (Dictionary.Registered { name; schema; owner }) ->
    Buffer.add_string buf "Er";
    List.iter (add_str buf) [ name; schema; owner ]
  | Dict_op (Dictionary.Evolved { name; schema; by }) ->
    Buffer.add_string buf "Ee";
    List.iter (add_str buf) [ name; schema; by ]
  | Fab_route { daemon; seq; topic; subject; payload; attempts } ->
    Buffer.add_char buf 'Q';
    add_str buf daemon;
    add_int buf seq;
    add_str buf topic;
    add_int buf subject;
    add_int buf (List.length payload);
    List.iter
      (fun (k, v) ->
        add_str buf k;
        add_str buf v)
      payload;
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
    add_int buf (List.length rs);
    List.iter (fun r -> add_str buf (encode r)) rs
  | End n ->
    Buffer.add_char buf 'Z';
    add_int buf n);
  Buffer.contents buf

(* {1 Reader} *)

exception Bad of string

type cursor = { src : string; mutable pos : int; names : (string, string) Hashtbl.t }

(* [n > remaining], not [pos + n > length]: a length read from the
   record may be near [max_int], where the sum wraps. *)
let need c n =
  if n < 0 || n > String.length c.src - c.pos then raise (Bad "truncated record")

let read_char c =
  need c 1;
  let ch = c.src.[c.pos] in
  c.pos <- c.pos + 1;
  ch

(* The one encoding of an int: a varint that ends in its last byte,
   has no redundant zero group and fits the 63 bits of an OCaml int;
   anything else is damage. *)
let read_int c =
  let rec go shift acc =
    let b = Char.code (read_char c) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then
      if b = 0 && shift > 0 then raise (Bad "overlong varint") else acc
    else if shift + 7 >= Sys.int_size then raise (Bad "varint wider than an int")
    else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let read_float c =
  need c 8;
  let bits = String.get_int64_le c.src c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let read_str c =
  let n = read_int c in
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

(* Tuple labels and structure names repeat in every row of a
   [Replace] or an [Insert]: one copy of each per record, as rows built
   in memory share their literals, keeps a decoded extent as small as
   the live one. *)
let read_name c =
  let s = read_str c in
  match Hashtbl.find_opt c.names s with
  | Some s -> s
  | None ->
    Hashtbl.add c.names s s;
    s

let read_count c =
  let n = read_int c in
  (* an element costs at least one byte, so this also bounds recursion *)
  need c n;
  n

let read_bool c =
  match read_char c with
  | '\000' -> false
  | '\001' -> true
  | ch -> raise (Bad (Printf.sprintf "bad boolean byte %C" ch))

(* strictly left-to-right (the cursor is stateful) *)
let read_list c n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f c :: acc) in
  go n []

let read_floats c = Array.of_list (read_list c (read_count c) read_float)
let read_matrix c = Array.of_list (read_list c (read_count c) read_floats)

let read_bag c =
  let doc = read_int c in
  let bag =
    read_list c (read_count c) (fun c ->
        let w = read_str c in
        (w, read_float c))
  in
  (doc, bag)

let read_store_op c =
  match read_char c with
  | 'd' ->
    let doc = read_int c in
    Store.O_doc (doc, read_str c)
  | 's' ->
    let doc = read_int c in
    let segs =
      read_list c (read_count c) (fun c ->
          let x = read_int c in
          let y = read_int c in
          let w = read_int c in
          let h = read_int c in
          { Segment.x; y; w; h })
    in
    Store.O_segments (doc, segs)
  | 'f' ->
    let doc = read_int c in
    let space = read_str c in
    Store.O_features (doc, space, read_matrix c)
  | 'm' ->
    let space = read_str c in
    let k = read_int c in
    let weights = read_floats c in
    let means = read_matrix c in
    let variances = read_matrix c in
    let loglik = read_float c in
    let loglik_trace = Array.to_list (read_floats c) in
    Store.O_model (space, { Autoclass.k; weights; means; variances; loglik; loglik_trace })
  | 't' ->
    let doc, bag = read_bag c in
    Store.O_text (doc, bag)
  | 'v' ->
    let doc, words = read_bag c in
    Store.O_visual (doc, words)
  | 'h' -> Store.O_thesaurus None
  | ch -> raise (Bad (Printf.sprintf "unknown store op %C" ch))

let rec read_value c =
  match read_char c with
  | 'i' -> Value.Atom (Atom.Int (read_int c))
  | 'f' -> Value.Atom (Atom.Flt (read_float c))
  | 's' -> Value.Atom (Atom.Str (read_str c))
  | 'b' -> Value.Atom (Atom.Bool (read_bool c))
  | 'o' -> Value.Atom (Atom.Oid (read_int c))
  | 'T' ->
    let n = read_count c in
    Value.Tup
      (read_list c n (fun c ->
           let label = read_name c in
           (label, read_value c)))
  | 'S' ->
    let n = read_count c in
    Value.VSet (read_list c n read_value)
  | 'X' ->
    let ext = read_name c in
    let meta = read_list c (read_count c) read_name in
    let items = read_list c (read_count c) read_value in
    Value.Xv { ext; meta; items }
  | ch -> raise (Bad (Printf.sprintf "unknown value tag %C" ch))

let read_named_list c read =
  let name = read_str c in
  let n = read_count c in
  (name, read_list c n read)

let rec decode payload =
  let c = { src = payload; pos = 0; names = Hashtbl.create 8 } in
  let finish r =
    if c.pos <> String.length payload then Error "trailing bytes in record" else Ok r
  in
  match
    match read_char c with
    | 'D' ->
      let name = read_str c in
      let tys = read_str c in
      Result.map (fun ty -> Define (name, ty)) (Parser.parse_type tys)
    | 'R' ->
      let name, rows = read_named_list c read_value in
      Ok (Replace (name, rows))
    | 'I' ->
      let name, rows = read_named_list c read_value in
      Ok (Insert (name, rows))
    | 'P' ->
      let name, positions = read_named_list c read_int in
      Ok (Delete (name, positions))
    | 'F' ->
      let query = read_str c in
      let n = read_count c in
      let judgements =
        read_list c n (fun c ->
            let url = read_str c in
            (url, read_bool c))
      in
      Ok (Feedback { query; judgements })
    | 'N' -> Ok (Store_op (read_store_op c))
    | 'E' -> (
      match read_char c with
      | 'r' ->
        let name = read_str c in
        let schema = read_str c in
        let owner = read_str c in
        Ok (Dict_op (Dictionary.Registered { name; schema; owner }))
      | 'e' ->
        let name = read_str c in
        let schema = read_str c in
        let by = read_str c in
        Ok (Dict_op (Dictionary.Evolved { name; schema; by }))
      | ch -> Error (Printf.sprintf "unknown dictionary change %C" ch))
    | 'Q' ->
      let daemon = read_str c in
      let seq = read_int c in
      let topic = read_str c in
      let subject = read_int c in
      let n = read_count c in
      let payload =
        read_list c n (fun c ->
            let k = read_str c in
            let v = read_str c in
            (k, v))
      in
      let attempts = read_int c in
      Ok (Fab_route { daemon; seq; topic; subject; payload; attempts })
    | 'H' ->
      let daemon = read_str c in
      let seq = read_int c in
      Ok (Fab_done { daemon; seq })
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
      let at = read_float c in
      Ok (Fab_dead { daemon; seq; cause; at })
    | 'B' ->
      let daemon = read_str c in
      let seq = read_int c in
      Ok (Fab_redeliver { daemon; seq })
    | 'A' ->
      let n = read_count c in
      Ok
        (Fab_atomic
           (read_list c n (fun c ->
                match decode (read_str c) with
                | Ok r -> r
                | Error e -> raise (Bad ("in atomic batch: " ^ e)))))
    | 'Z' -> Ok (End (read_int c))
    | ch -> Error (Printf.sprintf "unknown record tag %C" ch)
  with
  | Ok r -> finish r
  | Error _ as e -> e
  | exception Bad msg -> Error msg

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
  | Fab_route { daemon; seq; topic; _ } ->
    Printf.sprintf "fab-route #%d %s -> %s" seq topic daemon
  | Fab_done { daemon; seq } -> Printf.sprintf "fab-done #%d @ %s" seq daemon
  | Fab_dead { daemon; seq; cause; _ } ->
    Printf.sprintf "fab-dead #%d @ %s (%s)" seq daemon (Deadletter.cause_tag cause)
  | Fab_redeliver { daemon; seq } -> Printf.sprintf "fab-redeliver #%d @ %s" seq daemon
  | Fab_atomic rs -> Printf.sprintf "fab-atomic (%d records)" (List.length rs)
  | End n -> Printf.sprintf "end of snapshot (%d records)" n
