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
  mutable journal : (string -> string -> unit) option;
  mutable sync : (op -> unit) option;
}

and op =
  | O_doc of int * string
  | O_segments of int * Mirror_mm.Segment.region list
  | O_features of int * string * float array array
  | O_model of string * Mirror_mm.Autoclass.model
  | O_text of int * (string * float) list
  | O_visual of int * (string * float) list
  | O_thesaurus of Mirror_thesaurus.Concepts.t

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
    journal = None;
    sync = None;
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
    journal = None;
    sync = None;
  }

let set_journal t j = t.journal <- j
let log t tag payload = match t.journal with None -> () | Some f -> f tag payload
let set_sync t s = t.sync <- s
let emit t op = match t.sync with None -> () | Some f -> f op

(* Journal payload codecs.  Strings go through %S (OCaml literal
   escapes) and term weights through %h (hex floats), both of which
   round-trip exactly via Scanf. *)

let encode_bag doc bag =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int doc);
  List.iter (fun (w, tf) -> Buffer.add_string buf (Printf.sprintf " %S %h" w tf)) bag;
  Buffer.contents buf

let decode_bag payload =
  try
    let ib = Scanf.Scanning.from_string payload in
    let doc = Scanf.bscanf ib " %d" Fun.id in
    let rec pairs acc =
      if Scanf.Scanning.end_of_input ib then List.rev acc
      else pairs (Scanf.bscanf ib " %S %h" (fun w tf -> (w, tf)) :: acc)
    in
    Ok (doc, pairs [])
  with
  | Scanf.Scan_failure m | Failure m -> Error m
  | End_of_file -> Error "truncated store record"

let encode_segs doc segs =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "%d %d" doc (List.length segs));
  List.iter
    (fun (r : Mirror_mm.Segment.region) ->
      Buffer.add_string buf
        (Printf.sprintf " %d %d %d %d" r.Mirror_mm.Segment.x r.Mirror_mm.Segment.y
           r.Mirror_mm.Segment.w r.Mirror_mm.Segment.h))
    segs;
  Buffer.contents buf

let add_floats buf arr =
  Buffer.add_string buf (Printf.sprintf " %d" (Array.length arr));
  Array.iter (fun f -> Buffer.add_string buf (Printf.sprintf " %h" f)) arr

let add_matrix buf m =
  Buffer.add_string buf (Printf.sprintf " %d" (Array.length m));
  Array.iter (add_floats buf) m

let read_floats ib =
  let n = Scanf.bscanf ib " %d" Fun.id in
  Array.init n (fun _ -> Scanf.bscanf ib " %h" Fun.id)

let read_matrix ib =
  let n = Scanf.bscanf ib " %d" Fun.id in
  Array.init n (fun _ -> read_floats ib)

let encode_feats doc space vectors =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %S" doc space);
  add_matrix buf vectors;
  Buffer.contents buf

let encode_model space (m : Mirror_mm.Autoclass.model) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%S %d" space m.Mirror_mm.Autoclass.k);
  add_floats buf m.Mirror_mm.Autoclass.weights;
  add_matrix buf m.Mirror_mm.Autoclass.means;
  add_matrix buf m.Mirror_mm.Autoclass.variances;
  Buffer.add_string buf (Printf.sprintf " %h" m.Mirror_mm.Autoclass.loglik);
  add_floats buf (Array.of_list m.Mirror_mm.Autoclass.loglik_trace);
  Buffer.contents buf

(* Total decoding wrapper shared by the replay cases below. *)
let scanning payload f =
  try Ok (f (Scanf.Scanning.from_string payload)) with
  | Scanf.Scan_failure m | Failure m -> Error m
  | End_of_file -> Error "truncated store record"

let register_doc t ~doc ~url =
  if not (Hashtbl.mem t.urls doc) then begin
    Hashtbl.add t.urls doc url;
    t.docs_rev <- doc :: t.docs_rev;
    log t "doc" (Printf.sprintf "%d %S" doc url);
    emit t (O_doc (doc, url))
  end

let url_of t doc = Hashtbl.find_opt t.urls doc
let docs t = List.rev t.docs_rev

let put_segments t ~doc segs =
  Hashtbl.replace t.segs doc segs;
  log t "segs" (encode_segs doc segs);
  emit t (O_segments (doc, segs))

let segments t ~doc = Hashtbl.find_opt t.segs doc

let put_features t ~doc ~space vectors =
  Hashtbl.replace t.feats (doc, space) vectors;
  Hashtbl.replace t.spaces space ();
  log t "feats" (encode_feats doc space vectors);
  emit t (O_features (doc, space, vectors))

let features t ~doc ~space = Hashtbl.find_opt t.feats (doc, space)

let all_features t ~space =
  List.filter_map
    (fun doc -> Option.map (fun v -> (doc, v)) (features t ~doc ~space))
    (docs t)

let feature_spaces t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.spaces [])

let put_model t ~space m =
  Hashtbl.replace t.models space m;
  log t "model" (encode_model space m);
  emit t (O_model (space, m))

let model t ~space = Hashtbl.find_opt t.models space

let clustered_spaces t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.models [])

let put_text t ~doc bag =
  Hashtbl.replace t.texts doc bag;
  log t "text" (encode_bag doc bag);
  emit t (O_text (doc, bag))

let text t ~doc = Hashtbl.find_opt t.texts doc

let add_visual_words t ~doc words =
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
  log t "visual" (encode_bag doc words);
  emit t (O_visual (doc, words))

let visual_words t ~doc =
  match Hashtbl.find_opt t.visual doc with
  | None -> []
  | Some bag ->
    Hashtbl.fold (fun w tf acc -> (w, tf) :: acc) bag []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let put_thesaurus t th =
  t.thesaurus <- Some th;
  (* The thesaurus is a deterministic function of the evidence already
     journaled ahead of this record, so the record is a rebuild marker
     rather than a serialized index: replay reconstructs it with
     [Concepts.build] over the store state at this point in the log. *)
  log t "thesaurus" "";
  emit t (O_thesaurus th)

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

let apply t op =
  (* Apply a captured write without re-capturing it (the op log's
     fan-out must not echo); the durability journal still fires, so
     settled writes reach the orchestrator's WAL. *)
  let saved = t.sync in
  t.sync <- None;
  Fun.protect
    ~finally:(fun () -> t.sync <- saved)
    (fun () ->
      match op with
      | O_doc (doc, url) -> register_doc t ~doc ~url
      | O_segments (doc, segs) -> put_segments t ~doc segs
      | O_features (doc, space, vectors) -> put_features t ~doc ~space vectors
      | O_model (space, m) -> put_model t ~space m
      | O_text (doc, bag) -> put_text t ~doc bag
      | O_visual (doc, words) -> add_visual_words t ~doc words
      | O_thesaurus th -> put_thesaurus t th)

let replay t tag payload =
  let saved = t.journal in
  let saved_sync = t.sync in
  t.journal <- None;
  t.sync <- None;
  Fun.protect
    ~finally:(fun () ->
      t.journal <- saved;
      t.sync <- saved_sync)
    (fun () ->
      match tag with
      | "doc" -> (
        try Scanf.sscanf payload " %d %S" (fun doc url -> register_doc t ~doc ~url) |> Result.ok
        with
        | Scanf.Scan_failure m | Failure m -> Error m
        | End_of_file -> Error "truncated store record")
      | "text" ->
        Result.map (fun (doc, bag) -> Hashtbl.replace t.texts doc bag) (decode_bag payload)
      | "visual" ->
        Result.map (fun (doc, bag) -> add_visual_words t ~doc bag) (decode_bag payload)
      | "segs" ->
        Result.map
          (fun (doc, segs) -> put_segments t ~doc segs)
          (scanning payload (fun ib ->
               let doc = Scanf.bscanf ib " %d" Fun.id in
               let n = Scanf.bscanf ib " %d" Fun.id in
               let rec go k acc =
                 if k = 0 then List.rev acc
                 else
                   go (k - 1)
                     (Scanf.bscanf ib " %d %d %d %d" (fun x y w h ->
                          { Mirror_mm.Segment.x; y; w; h })
                     :: acc)
               in
               (doc, go n [])))
      | "feats" ->
        Result.map
          (fun (doc, space, vectors) -> put_features t ~doc ~space vectors)
          (scanning payload (fun ib ->
               let doc = Scanf.bscanf ib " %d" Fun.id in
               let space = Scanf.bscanf ib " %S" Fun.id in
               (doc, space, read_matrix ib)))
      | "model" ->
        Result.map
          (fun (space, m) -> put_model t ~space m)
          (scanning payload (fun ib ->
               let space = Scanf.bscanf ib " %S" Fun.id in
               let k = Scanf.bscanf ib " %d" Fun.id in
               let weights = read_floats ib in
               let means = read_matrix ib in
               let variances = read_matrix ib in
               let loglik = Scanf.bscanf ib " %h" Fun.id in
               let loglik_trace = Array.to_list (read_floats ib) in
               ( space,
                 { Mirror_mm.Autoclass.k; weights; means; variances; loglik; loglik_trace }
               )))
      | "thesaurus" ->
        put_thesaurus t (Mirror_thesaurus.Concepts.build (evidence t));
        Ok ()
      | _ -> Error (Printf.sprintf "unknown store record tag %S" tag))
