type t = { tbl : (string, Bat.t) Hashtbl.t }

let create () : t = { tbl = Hashtbl.create 64 }
let put t name b = Hashtbl.replace t.tbl name b
let get t name = Hashtbl.find t.tbl name
let find t name = Hashtbl.find_opt t.tbl name
let mem t name = Hashtbl.mem t.tbl name
let remove t name = Hashtbl.remove t.tbl name

(* A snapshot is a frozen copy of the binding table.  BATs themselves
   are immutable once built (the kernel's sharing discipline is
   verified by Effcheck), so copying the table — O(#names), no row
   data — is a full copy-on-write version of the catalog: later [put]s
   and [remove]s on the live catalog never reach it. *)
type snapshot = (string, Bat.t) Hashtbl.t

let snapshot t : snapshot = Hashtbl.copy t.tbl

let of_snapshot (s : snapshot) : t = { tbl = Hashtbl.copy s }

let names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
let cardinality t = Hashtbl.length t.tbl
let total_rows t = Hashtbl.fold (fun _ b acc -> acc + Bat.count b) t.tbl 0

(* Snapshot format, one entry per stanza:
     %bat <name-with-%XX-escapes> <hty> <tty> <rows>
     <head atom>\t<tail atom>        (rows lines)
   Atom rendering reuses Atom.to_string / Atom.parse.  [save_file]
   appends an integrity footer line
     %crc <8 hex digits>
   over everything before it, and [parse] requires and verifies it: a
   file cut at a stanza boundary would otherwise parse as a catalog
   with entries missing. *)

let escape_name name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      if c = ' ' || c = '%' || c = '\n' || c = '\t' then
        Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      else Buffer.add_char buf c)
    name;
  Buffer.contents buf

let unescape_name s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let dump_buffer t buf =
  List.iter
    (fun name ->
      let b = get t name in
      Buffer.add_string buf
        (Printf.sprintf "%%bat %s %s %s %d\n" (escape_name name)
           (Atom.ty_name (Bat.hty b)) (Atom.ty_name (Bat.tty b)) (Bat.count b));
      Bat.iter
        (fun h tl ->
          Buffer.add_string buf (Atom.to_string h);
          Buffer.add_char buf '\t';
          Buffer.add_string buf (Atom.to_string tl);
          Buffer.add_char buf '\n')
        b)
    (names t)

let ty_of_name = function
  | "int" -> Ok Atom.TInt
  | "flt" -> Ok Atom.TFlt
  | "str" -> Ok Atom.TStr
  | "bool" -> Ok Atom.TBool
  | "oid" -> Ok Atom.TOid
  | s -> Error (Printf.sprintf "unknown type %S" s)

let ( let* ) = Result.bind

(* Parse the stanza lines (footer already stripped).  [lines] may end
   with one empty string from a trailing newline split. *)
let parse_lines lines =
  let t = create () in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let rec read_entries i =
    if i >= n then Ok t
    else
      let line = lines.(i) in
      if line = "" && i = n - 1 then Ok t
      else
        match String.split_on_char ' ' line with
        | [ "%bat"; name; htys; ttys; rows ] ->
          let* hty = ty_of_name htys in
          let* tty = ty_of_name ttys in
          let* nrows =
            match int_of_string_opt rows with
            | Some k when k >= 0 -> Ok k
            | _ -> Error (Printf.sprintf "bad row count %S" rows)
          in
          let hb = Column.Builder.create hty and tb = Column.Builder.create tty in
          let rec read_rows j k =
            if k = 0 then Ok j
            else if j >= n then Error "truncated snapshot"
            else
              let row = lines.(j) in
              match String.index_opt row '\t' with
              | None -> Error (Printf.sprintf "malformed row %S" row)
              | Some tab ->
                let hs = String.sub row 0 tab in
                let ts = String.sub row (tab + 1) (String.length row - tab - 1) in
                let* h = Atom.parse hty hs in
                let* tl = Atom.parse tty ts in
                Column.Builder.add hb h;
                Column.Builder.add tb tl;
                read_rows (j + 1) (k - 1)
          in
          let* next = read_rows (i + 1) nrows in
          put t (unescape_name name)
            (Bat.make (Column.Builder.finish hb) (Column.Builder.finish tb));
          read_entries next
        | _ -> Error (Printf.sprintf "malformed header %S" line)
  in
  read_entries 0

(* Split a trailing "%crc XXXXXXXX\n" footer off a raw snapshot and
   verify it.  Returns the body to parse. *)
let check_footer src =
  let len = String.length src in
  (* start offset of the last line (ignoring one trailing newline) *)
  let stop = if len > 0 && src.[len - 1] = '\n' then len - 1 else len in
  let start =
    if stop = 0 then 0
    else match String.rindex_from_opt src (stop - 1) '\n' with Some i -> i + 1 | None -> 0
  in
  match () with
  | () when len - start >= 5 && String.sub src start 5 = "%crc " ->
    let hex = String.trim (String.sub src (start + 5) (String.length src - start - 5)) in
    let body = String.sub src 0 start in
    (match Mirror_util.Crc32.of_hex hex with
    | None -> Error (Printf.sprintf "malformed integrity footer %%crc %S" hex)
    | Some expect ->
      let got = Mirror_util.Crc32.string body in
      if got <> expect then
        Error
          (Printf.sprintf "snapshot checksum mismatch: footer %s, content %s"
             (Mirror_util.Crc32.to_hex expect) (Mirror_util.Crc32.to_hex got))
      else Ok body)
  | _ -> Error "snapshot is missing its %crc integrity footer"

let parse src =
  let* body = check_footer src in
  parse_lines (String.split_on_char '\n' body)

let save_file t path =
  let buf = Buffer.create 4096 in
  dump_buffer t buf;
  let body = Buffer.contents buf in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc body;
      Printf.fprintf oc "%%crc %s\n" (Mirror_util.Crc32.to_hex (Mirror_util.Crc32.string body));
      Mirror_util.Fsx.fsync_out oc);
  Sys.rename tmp path

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
