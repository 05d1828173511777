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
