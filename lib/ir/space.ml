module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column

type postings = { ctxs : int array; tfs : float array; lens : float array }

(* The index and the columns it was built from, compared with [==]. *)
type index = {
  occ_heads : int array;
  len_heads : int array;
  len_tails : float array;
  terms : (string, postings) Hashtbl.t;
}

type t = {
  sname : string;
  voc : Vocab.t;
  mutable ndocs : int;
  mutable df : int array;
  doclen : (int, float) Hashtbl.t;
  mutable total_len : float;
  mutable idx : index option;
  mutable scans : int;
}

let create sname =
  {
    sname;
    voc = Vocab.create ();
    ndocs = 0;
    df = Array.make 256 0;
    doclen = Hashtbl.create 64;
    total_len = 0.0;
    idx = None;
    scans = 0;
  }

let name t = t.sname
let vocab t = t.voc

let bump_df t id =
  if id >= Array.length t.df then begin
    let fresh = Array.make (max (2 * Array.length t.df) (id + 1)) 0 in
    Array.blit t.df 0 fresh 0 (Array.length t.df);
    t.df <- fresh
  end;
  t.df.(id) <- t.df.(id) + 1

let add_doc t ~doc bag =
  if Hashtbl.mem t.doclen doc then
    invalid_arg (Printf.sprintf "Space.add_doc: document %d already registered in %S" doc t.sname);
  let len = List.fold_left (fun acc (_, tf) -> acc +. tf) 0.0 bag in
  Hashtbl.add t.doclen doc len;
  t.total_len <- t.total_len +. len;
  t.ndocs <- t.ndocs + 1;
  (* df counts distinct terms per document *)
  let seen = Hashtbl.create (List.length bag) in
  List.map
    (fun (w, _) ->
      let id = Vocab.intern t.voc w in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        bump_df t id
      end;
      id)
    bag

let ndocs t = t.ndocs
let df t id = if id >= 0 && id < Array.length t.df then t.df.(id) else 0
let doc_len t doc = Option.value ~default:0.0 (Hashtbl.find_opt t.doclen doc)
let avg_doc_len t = if t.ndocs = 0 then 0.0 else t.total_len /. Float.of_int t.ndocs
let mem_doc t doc = Hashtbl.mem t.doclen doc

let no_postings = { ctxs = [||]; tfs = [||]; lens = [||] }

let set_index t ~heads ~len terms =
  t.idx <-
    Some
      {
        occ_heads = heads;
        len_heads = Column.oid_exn (Bat.head len);
        len_tails = Column.float_exn (Bat.tail len);
        terms;
      }

let index t ~heads ~len =
  match (t.idx, Bat.head len, Bat.tail len) with
  | Some i, Column.O lh, Column.F lt
    when i.occ_heads == heads && i.len_heads == lh && i.len_tails == lt ->
    Some i.terms
  | _ -> None

let scans t = t.scans
let count_scan t = t.scans <- t.scans + 1

let belief t ~tf ~term doclen =
  Belief.belief ~tf ~df:(df t term) ~ndocs:t.ndocs ~doclen ~avg_doclen:(avg_doc_len t)
