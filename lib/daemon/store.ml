type t = {
  urls : (int, string) Hashtbl.t;
  mutable docs_rev : int list;
  segs : (int, Mirror_mm.Segment.region list) Hashtbl.t;
  feats : (int * string, float array array) Hashtbl.t;
  spaces : (string, unit) Hashtbl.t;
  models : (string, Mirror_mm.Autoclass.model) Hashtbl.t;
  texts : (int, (string * float) list) Hashtbl.t;
  visual : (int, (string, float) Hashtbl.t) Hashtbl.t;
  mutable thesaurus : Mirror_thesaurus.Concepts.t option;
  mutable hook : (op -> unit) option;
}

and op =
  | O_doc of int * string
  | O_segments of int * Mirror_mm.Segment.region list
  | O_features of int * string * float array array
  | O_model of string * Mirror_mm.Autoclass.model
  | O_text of int * (string * float) list
  | O_visual of int * (string * float) list
  | O_thesaurus of Mirror_thesaurus.Concepts.t option

let create () =
  {
    urls = Hashtbl.create 64;
    docs_rev = [];
    segs = Hashtbl.create 64;
    feats = Hashtbl.create 256;
    spaces = Hashtbl.create 8;
    models = Hashtbl.create 8;
    texts = Hashtbl.create 64;
    visual = Hashtbl.create 64;
    thesaurus = None;
    hook = None;
  }

let copy t =
  let visual = Hashtbl.create (Hashtbl.length t.visual) in
  Hashtbl.iter (fun doc bag -> Hashtbl.replace visual doc (Hashtbl.copy bag)) t.visual;
  {
    t with
    urls = Hashtbl.copy t.urls;
    segs = Hashtbl.copy t.segs;
    feats = Hashtbl.copy t.feats;
    spaces = Hashtbl.copy t.spaces;
    models = Hashtbl.copy t.models;
    texts = Hashtbl.copy t.texts;
    visual;
    hook = None;
  }

let set_hook t h = t.hook <- h

(* {1 Reads} *)

let url_of t doc = Hashtbl.find_opt t.urls doc
let docs t = List.rev t.docs_rev
let segments t ~doc = Hashtbl.find_opt t.segs doc
let features t ~doc ~space = Hashtbl.find_opt t.feats (doc, space)

let all_features t ~space =
  List.filter_map
    (fun doc -> Option.map (fun v -> (doc, v)) (features t ~doc ~space))
    (docs t)

let feature_spaces t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.spaces [])

let model t ~space = Hashtbl.find_opt t.models space

let clustered_spaces t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.models [])

let text t ~doc = Hashtbl.find_opt t.texts doc

let visual_words t ~doc =
  match Hashtbl.find_opt t.visual doc with
  | None -> []
  | Some bag ->
    Hashtbl.fold (fun w tf acc -> (w, tf) :: acc) bag []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let thesaurus t = t.thesaurus

let evidence t =
  List.map
    (fun doc ->
      {
        Mirror_thesaurus.Assoc.doc;
        text = Option.value ~default:[] (text t ~doc);
        visual = visual_words t ~doc;
      })
    (docs t)

(* {1 Writes}

   Every mutator is [apply] of one op, and [apply] hands the op it
   applied to the hook. *)

let apply t op =
  let fire op = match t.hook with None -> () | Some f -> f op in
  match op with
  | O_doc (doc, url) ->
    if not (Hashtbl.mem t.urls doc) then begin
      Hashtbl.add t.urls doc url;
      t.docs_rev <- doc :: t.docs_rev;
      fire op
    end
  | O_segments (doc, segs) ->
    Hashtbl.replace t.segs doc segs;
    fire op
  | O_features (doc, space, vectors) ->
    Hashtbl.replace t.feats (doc, space) vectors;
    Hashtbl.replace t.spaces space ();
    fire op
  | O_model (space, m) ->
    Hashtbl.replace t.models space m;
    fire op
  | O_text (doc, bag) ->
    Hashtbl.replace t.texts doc bag;
    fire op
  | O_visual (doc, words) ->
    let bag =
      match Hashtbl.find_opt t.visual doc with
      | Some b -> b
      | None ->
        let b = Hashtbl.create 16 in
        Hashtbl.add t.visual doc b;
        b
    in
    List.iter
      (fun (w, tf) ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt bag w) in
        Hashtbl.replace bag w (prev +. tf))
      words;
    fire op
  | O_thesaurus th ->
    (* [None] is the log's rebuild marker: the thesaurus is a
       deterministic function of the evidence journaled ahead of it. *)
    let th =
      match th with Some th -> th | None -> Mirror_thesaurus.Concepts.build (evidence t)
    in
    t.thesaurus <- Some th;
    fire (O_thesaurus (Some th))

let register_doc t ~doc ~url = apply t (O_doc (doc, url))
let put_segments t ~doc segs = apply t (O_segments (doc, segs))
let put_features t ~doc ~space vectors = apply t (O_features (doc, space, vectors))
let put_model t ~space m = apply t (O_model (space, m))
let put_text t ~doc bag = apply t (O_text (doc, bag))
let add_visual_words t ~doc words = apply t (O_visual (doc, words))
let put_thesaurus t th = apply t (O_thesaurus (Some th))

(* {1 Codec}

   One sub-tag character, then the fields.  The thesaurus travels as a
   bare rebuild marker: it is a function of the evidence written
   before it. *)

module Codec = Mirror_util.Codec

let add_array buf add a =
  Codec.add_int buf (Array.length a);
  Array.iter (add buf) a

let add_floats buf a = add_array buf Codec.add_float a
let add_matrix buf m = add_array buf add_floats m

let add_bag buf doc bag =
  Codec.add_int buf doc;
  Codec.add_list buf (Codec.add_pair Codec.add_str Codec.add_float) bag

let add_op buf = function
  | O_doc (doc, url) ->
    Buffer.add_char buf 'd';
    Codec.add_int buf doc;
    Codec.add_str buf url
  | O_segments (doc, segs) ->
    Buffer.add_char buf 's';
    Codec.add_int buf doc;
    Codec.add_list buf
      (fun buf { Mirror_mm.Segment.x; y; w; h } -> List.iter (Codec.add_int buf) [ x; y; w; h ])
      segs
  | O_features (doc, space, vectors) ->
    Buffer.add_char buf 'f';
    Codec.add_int buf doc;
    Codec.add_str buf space;
    add_matrix buf vectors
  | O_model (space, m) ->
    Buffer.add_char buf 'm';
    Codec.add_str buf space;
    Codec.add_int buf m.Mirror_mm.Autoclass.k;
    add_floats buf m.Mirror_mm.Autoclass.weights;
    add_matrix buf m.Mirror_mm.Autoclass.means;
    add_matrix buf m.Mirror_mm.Autoclass.variances;
    Codec.add_float buf m.Mirror_mm.Autoclass.loglik;
    Codec.add_list buf Codec.add_float m.Mirror_mm.Autoclass.loglik_trace
  | O_text (doc, bag) ->
    Buffer.add_char buf 't';
    add_bag buf doc bag
  | O_visual (doc, words) ->
    Buffer.add_char buf 'v';
    add_bag buf doc words
  | O_thesaurus _ -> Buffer.add_char buf 'h'

let read_floats c = Array.of_list (Codec.read_list c Codec.read_float)
let read_matrix c = Array.of_list (Codec.read_list c read_floats)

let read_bag c =
  let doc = Codec.read_int c in
  (doc, Codec.read_list c (Codec.read_pair Codec.read_str Codec.read_float))

let read_op c =
  match Codec.read_char c with
  | 'd' ->
    let doc = Codec.read_int c in
    O_doc (doc, Codec.read_str c)
  | 's' ->
    let doc = Codec.read_int c in
    let segs =
      Codec.read_list c (fun c ->
          let x = Codec.read_int c in
          let y = Codec.read_int c in
          let w = Codec.read_int c in
          let h = Codec.read_int c in
          { Mirror_mm.Segment.x; y; w; h })
    in
    O_segments (doc, segs)
  | 'f' ->
    let doc = Codec.read_int c in
    let space = Codec.read_str c in
    O_features (doc, space, read_matrix c)
  | 'm' ->
    let space = Codec.read_str c in
    let k = Codec.read_int c in
    let weights = read_floats c in
    let means = read_matrix c in
    let variances = read_matrix c in
    let loglik = Codec.read_float c in
    let loglik_trace = Codec.read_list c Codec.read_float in
    O_model (space, { Mirror_mm.Autoclass.k; weights; means; variances; loglik; loglik_trace })
  | 't' ->
    let doc, bag = read_bag c in
    O_text (doc, bag)
  | 'v' ->
    let doc, words = read_bag c in
    O_visual (doc, words)
  | 'h' -> O_thesaurus None
  | ch -> raise (Codec.Bad (Printf.sprintf "unknown store op %C" ch))
