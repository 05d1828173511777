module Atom = Mirror_bat.Atom
module Synth = Mirror_mm.Synth
module Orchestrator = Mirror_daemon.Orchestrator
module Daemon = Mirror_daemon.Daemon
module Store = Mirror_daemon.Store
module Concepts = Mirror_thesaurus.Concepts
module Adapt = Mirror_thesaurus.Adapt
module Tokenize = Mirror_ir.Tokenize
module Querynet = Mirror_ir.Querynet

type t = {
  stor : Storage.t;
  adapt : Adapt.t;
  mutable thesaurus : Concepts.t option;
  url_of : (int, string) Hashtbl.t;
  doc_of : (string, int) Hashtbl.t;
  visual : (string, (string * float) list) Hashtbl.t;  (* by url *)
  mutable on_feedback : (query:string -> judgements:(string * bool) list -> unit) option;
}

type outcome =
  | Defined of string
  | Bound of string
  | Inserted of string
  | Deleted of string * int
  | Evaluated of Value.t

let of_storage stor =
  Bootstrap.ensure ();
  {
    stor;
    adapt = Adapt.create ();
    thesaurus = None;
    url_of = Hashtbl.create 64;
    doc_of = Hashtbl.create 64;
    visual = Hashtbl.create 64;
    on_feedback = None;
  }

let create () = of_storage (Storage.create ())

let storage t = t.stor
let set_feedback_hook t h = t.on_feedback <- h
let define t ~name ty = Storage.define t.stor ~name ty
let load t ~name rows = Storage.load t.stor ~name rows

let run_expr t expr = Eval.query_value t.stor expr

let ( let* ) = Result.bind

let exec_program t ?bindings src =
  let* stmts = Parser.parse_program ?bindings src in
  List.fold_left
    (fun acc stmt ->
      let* done_ = acc in
      match stmt with
      | Parser.Define (name, ty) ->
        let* () = define t ~name ty in
        Ok (Defined name :: done_)
      | Parser.Let (name, _) -> Ok (Bound name :: done_)
      | Parser.Insert (name, e) -> (
        match Naive.eval t.stor e with
        | row ->
          let* _ = Storage.insert t.stor ~name [ row ] in
          Ok (Inserted name :: done_)
        | exception Failure msg -> Error msg
        | exception Invalid_argument msg -> Error msg)
      | Parser.Delete (name, (v, pred)) -> (
        let matches row =
          match Naive.eval_with t.stor ~vars:[ (v, row) ] pred with
          | Value.Atom (Mirror_bat.Atom.Bool b) -> b
          | _ -> failwith "delete predicate must be boolean"
        in
        match Storage.delete_where t.stor ~name matches with
        | Ok n -> Ok (Deleted (name, n) :: done_)
        | Error e -> Error e
        | exception Failure msg -> Error msg
        | exception Invalid_argument msg -> Error msg)
      | Parser.Query expr ->
        let* v = run_expr t expr in
        Ok (Evaluated v :: done_))
    (Ok []) stmts
  |> Result.map List.rev

let run_query t ?bindings src =
  let* expr = Parser.parse_expr ?bindings src in
  run_expr t expr

(* {1 The demo image library} *)

let library_schema =
  Types.Set
    (Types.Tuple
       [
         ("source", Types.Atomic Atom.TStr);
         ("annotation", Types.Atomic Atom.TStr);
         ("image", Types.Atomic Atom.TStr);
       ])

let internal_schema =
  Types.Set
    (Types.Tuple
       [
         ("source", Types.Atomic Atom.TStr);
         ("annotation", Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ]));
         ("image", Types.Xt ("CONTREP", [ Types.Atomic Atom.TStr ]));
       ])

let build_image_library t ?daemons ?journal ~scenes () =
  let orch = Orchestrator.create ?daemons () in
  Store.set_hook (Orchestrator.ctx orch).Daemon.store journal;
  Array.iteri
    (fun i (s : Synth.scene) ->
      let url = Printf.sprintf "img://%d" i in
      let annotation = Option.map (String.concat " ") s.Synth.caption in
      Orchestrator.ingest_image orch ~doc:i ~url ?annotation s.Synth.image)
    scenes;
  Orchestrator.complete_collection orch;
  let report = Orchestrator.run orch in
  let store = (Orchestrator.ctx orch).Daemon.store in
  let caption i =
    match scenes.(i).Synth.caption with Some words -> String.concat " " words | None -> ""
  in
  let raw_rows =
    List.map
      (fun doc ->
        let url = Option.value ~default:"" (Store.url_of store doc) in
        Value.Tup
          [
            ("source", Value.str url);
            ("annotation", Value.str (caption doc));
            ("image", Value.str url);
          ])
      (Store.docs store)
  in
  let internal_rows =
    List.map
      (fun doc ->
        let url = Option.value ~default:"" (Store.url_of store doc) in
        let text = Option.value ~default:[] (Store.text store ~doc) in
        let vis = Store.visual_words store ~doc in
        Value.Tup
          [
            ("source", Value.str url);
            ("annotation", Value.contrep text);
            ("image", Value.contrep vis);
          ])
      (Store.docs store)
  in
  let ensure_defined name ty =
    match Storage.extent_type t.stor name with
    | Some _ -> Ok ()
    | None -> Storage.define t.stor ~name ty
  in
  let* () = ensure_defined "ImageLibrary" library_schema in
  let* () = ensure_defined "ImageLibraryInternal" internal_schema in
  let* _ = Storage.load t.stor ~name:"ImageLibrary" raw_rows in
  let* oids = Storage.load t.stor ~name:"ImageLibraryInternal" internal_rows in
  Hashtbl.reset t.url_of;
  Hashtbl.reset t.doc_of;
  Hashtbl.reset t.visual;
  List.iteri
    (fun i doc ->
      let oid = List.nth oids i in
      let url = Option.value ~default:"" (Store.url_of store doc) in
      Hashtbl.replace t.url_of oid url;
      Hashtbl.replace t.doc_of url oid;
      Hashtbl.replace t.visual url (Store.visual_words store ~doc))
    (Store.docs store);
  t.thesaurus <- Store.thesaurus store;
  Ok report

let library_size t = Hashtbl.length t.url_of
let visual_bag t url = Option.value ~default:[] (Hashtbl.find_opt t.visual url)

(* {1 Retrieval} *)

type mode = Text_only | Image_only | Dual

let thesaurus_lookup t ?(limit = 10) text =
  match t.thesaurus with
  | None -> []
  | Some th ->
    let terms = Tokenize.terms text in
    if terms = [] then []
    else
      Concepts.associate th ~limit (Querynet.flat terms)
      |> Adapt.adjust t.adapt ~terms

(* The §3/§5.2 ranking query, with source bookkeeping and a LIST
   result:
     take(tolist_desc(
       map[tuple<source: THIS.source, score: sum(getBL(THIS.<field>, q))>](
         ImageLibraryInternal), "score"), limit) *)
let rank_by_terms t ?(limit = 10) ~field terms =
  let body =
    Expr.Tuple
      [
        ("source", Expr.Field (Expr.Var "x", "source"));
        ("score", Expr.sum (Expr.getbl (Expr.Field (Expr.Var "x", field)) (Expr.lit_str_set terms)));
      ]
  in
  let scored = Expr.Map { v = "x"; body; src = Expr.Extent "ImageLibraryInternal" } in
  let listed =
    Expr.ExtOp
      {
        op = "take";
        args =
          [
            Expr.ExtOp { op = "tolist_desc"; args = [ scored; Expr.lit_str "score" ] };
            Expr.lit_int limit;
          ];
      }
  in
  let* v = run_expr t listed in
  match v with
  | Value.Xv { ext = "LIST"; items; _ } ->
    Ok
      (List.map
         (fun item ->
           let url = Atom.as_string (Value.as_atom (Value.field_exn item "source")) in
           let score = Atom.as_float (Value.as_atom (Value.field_exn item "score")) in
           (url, score))
         items)
  | other -> Error ("unexpected ranking result " ^ Value.to_string other)

let combine_rankings a b =
  let scores = Hashtbl.create 32 in
  let add weight ranking =
    List.iter
      (fun (url, s) ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt scores url) in
        Hashtbl.replace scores url (prev +. (weight *. s)))
      ranking
  in
  add 0.5 a;
  add 0.5 b;
  Hashtbl.fold (fun url s acc -> (url, s) :: acc) scores []
  |> List.sort (fun (u1, s1) (u2, s2) ->
         let c = Float.compare s2 s1 in
         if c <> 0 then c else String.compare u1 u2)

let search t ?(limit = 10) ?(mode = Dual) text =
  let text_terms = Tokenize.terms text in
  let concept_terms =
    List.map fst (List.filteri (fun i _ -> i < 4) (thesaurus_lookup t text))
  in
  (* Rank over the full library so dual combination sees both scores;
     truncate at the end. *)
  let full = library_size t in
  let rank field terms =
    if terms = [] then Ok [] else rank_by_terms t ~limit:(max full 1) ~field terms
  in
  let* ranking =
    match mode with
    | Text_only -> rank "annotation" text_terms
    | Image_only -> rank "image" concept_terms
    | Dual ->
      let* by_text = rank "annotation" text_terms in
      let* by_image = rank "image" concept_terms in
      Ok (combine_rankings by_text by_image)
  in
  Ok (List.filteri (fun i _ -> i < limit) ranking)

let search_refined t ?(limit = 10) ~query ~judgements () =
  let text_terms = Tokenize.terms query in
  let original =
    List.map (fun (c, w) -> (c, w)) (List.filteri (fun i _ -> i < 4) (thesaurus_lookup t query))
  in
  let bags flag =
    List.filter_map
      (fun (url, relevant) -> if relevant = flag then Some (visual_bag t url) else None)
      judgements
  in
  let refined =
    Feedback.rocchio ~original ~relevant:(bags true) ~irrelevant:(bags false) ()
  in
  let concept_terms = List.map fst refined in
  let full = max (library_size t) 1 in
  let* by_image =
    if concept_terms = [] then Ok []
    else rank_by_terms t ~limit:full ~field:"image" concept_terms
  in
  let* by_text =
    if text_terms = [] then Ok [] else rank_by_terms t ~limit:full ~field:"annotation" text_terms
  in
  Ok (List.filteri (fun i _ -> i < limit) (combine_rankings by_text by_image))

let give_feedback t ~query ~judgements =
  let terms = Tokenize.terms query in
  let formulated = List.map fst (thesaurus_lookup t query) in
  List.iter
    (fun (url, relevant) ->
      let doc_concepts = List.map fst (visual_bag t url) in
      let responsible = List.filter (fun c -> List.mem c doc_concepts) formulated in
      if responsible <> [] then
        Adapt.reinforce t.adapt ~terms ~concepts:responsible ~good:relevant)
    judgements;
  match t.on_feedback with None -> () | Some f -> f ~query ~judgements

let replay_feedback t ~query ~judgements =
  let saved = t.on_feedback in
  t.on_feedback <- None;
  Fun.protect
    ~finally:(fun () -> t.on_feedback <- saved)
    (fun () -> give_feedback t ~query ~judgements)
