module Milcheck = Mirror_bat.Milcheck
module Effcheck = Mirror_bat.Effcheck
module Boundcheck = Mirror_bat.Boundcheck
module Jsonx = Mirror_util.Jsonx

type query = {
  src : string;
  error : string option;
  moa : Moaprop.diag list;
  mil : Milcheck.diag list;
  eff : Milcheck.diag list;
  bound : Milcheck.diag list;
  nodes : int;
  partitions : int;
  shared_columns : int;
  est_bytes : int;
  peak_bytes : int option;
  reclaim_bytes : int;
  failed : bool;
}

type t = { queries : query list; failures : int }

let failed_query src error =
  {
    src;
    error = Some error;
    moa = [];
    mil = [];
    eff = [];
    bound = [];
    nodes = 0;
    partitions = 0;
    shared_columns = 0;
    est_bytes = 0;
    peak_bytes = None;
    reclaim_bytes = 0;
    failed = true;
  }

let check st ~src expr =
  match Plancheck.vet st expr with
  | Error e -> failed_query src e
  | Ok (_ : Plancheck.vetted) -> (
    match Eval.compile st expr with
    | Error e -> failed_query src ("flatten: " ^ e)
    | Ok (_, shape) ->
      let moa = Moacheck.lint (Moacheck.env_of_storage st) expr in
      let analysis = Storage.analyze st shape in
      let mil = Milcheck.lint analysis in
      let verdict = Effcheck.verdict analysis in
      let bounds = Boundcheck.footprints analysis in
      (* The effect layer is strict: any hazard fails the query, not
         just error severity — a warning-level hazard still blocks the
         parallel-executor precondition the corpus gate protects.  The
         bound layer only warns: an unbounded-foreign warning degrades
         the envelope without invalidating the plan. *)
      let failed =
        Moaprop.errors moa <> [] || Milcheck.errors mil <> [] || verdict.Effcheck.hazards <> []
      in
      {
        src;
        error = None;
        moa;
        mil;
        eff = verdict.Effcheck.hazards;
        bound = bounds.Boundcheck.diags;
        nodes = verdict.Effcheck.nodes;
        partitions = verdict.Effcheck.partitions;
        shared_columns = verdict.Effcheck.shared_columns;
        est_bytes = bounds.Boundcheck.resident.Boundcheck.fp_est;
        peak_bytes = bounds.Boundcheck.resident.Boundcheck.fp_hi;
        reclaim_bytes = bounds.Boundcheck.reclaim.Boundcheck.fp_est;
        failed;
      })

let check_src st src =
  match Parser.parse_expr src with
  | Error e -> failed_query src ("parse: " ^ e)
  | Ok expr -> check st ~src expr

let sweep st srcs =
  let queries = List.map (check_src st) srcs in
  { queries; failures = List.length (List.filter (fun q -> q.failed) queries) }

(* {1 JSON rendering} *)

let moa_severity = function
  | Moaprop.Error -> "error"
  | Moaprop.Warning -> "warning"
  | Moaprop.Hint -> "hint"

let mil_severity = function
  | Milcheck.Error -> "error"
  | Milcheck.Warning -> "warning"
  | Milcheck.Hint -> "hint"

let diag_json ~layer ~severity ~path ~op ~message =
  Jsonx.Obj
    [
      ("layer", Jsonx.Str layer);
      ("severity", Jsonx.Str severity);
      ("path", Jsonx.Str path);
      ("op", Jsonx.Str op);
      ("message", Jsonx.Str message);
    ]

let query_json q =
  let moa =
    List.map
      (fun (d : Moaprop.diag) ->
        diag_json ~layer:"moa" ~severity:(moa_severity d.Moaprop.severity) ~path:d.Moaprop.path
          ~op:d.Moaprop.op ~message:d.Moaprop.message)
      q.moa
  in
  let mil_layer layer =
    List.map (fun (d : Milcheck.diag) ->
        diag_json ~layer ~severity:(mil_severity d.Milcheck.severity) ~path:d.Milcheck.path
          ~op:d.Milcheck.op ~message:d.Milcheck.message)
  in
  Jsonx.Obj
    [
      ("src", Jsonx.Str q.src);
      ("failed", Jsonx.Bool q.failed);
      ("error", match q.error with Some e -> Jsonx.Str e | None -> Jsonx.Null);
      ("nodes", Jsonx.Int q.nodes);
      ("partitions", Jsonx.Int q.partitions);
      ("shared_columns", Jsonx.Int q.shared_columns);
      ("est_bytes", Jsonx.Int q.est_bytes);
      ("peak_bytes", match q.peak_bytes with Some b -> Jsonx.Int b | None -> Jsonx.Null);
      ("reclaim_bytes", Jsonx.Int q.reclaim_bytes);
      ( "diagnostics",
        Jsonx.Arr
          (moa @ mil_layer "mil" q.mil @ mil_layer "eff" q.eff @ mil_layer "bound" q.bound) );
    ]

let layers_json =
  Jsonx.Arr
    (List.map
       (fun (name, schema) ->
         Jsonx.Obj [ ("name", Jsonx.Str name); ("schema", Jsonx.Str schema) ])
       [
         ("moa", "mirror-lint-moa/v1");
         ("mil", "mirror-lint-mil/v1");
         ("eff", "mirror-lint-eff/v1");
         ("bound", "mirror-lint-bound/v1");
       ])

let to_json t =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "mirror-lint/v2");
      ("layers", layers_json);
      ("checked", Jsonx.Int (List.length t.queries));
      ("failures", Jsonx.Int t.failures);
      ("queries", Jsonx.Arr (List.map query_json t.queries));
    ]

(* {1 Text rendering} *)

let print_query q =
  match q.error with
  | Some e -> Printf.printf "FAIL  %s\n  %s\n" q.src e
  | None ->
    Printf.printf "%s  %s\n" (if q.failed then "FAIL" else "ok  ") q.src;
    List.iter (fun d -> Printf.printf "  moa: %s\n" (Moaprop.diag_to_string d)) q.moa;
    List.iter (fun d -> Printf.printf "  mil: %s\n" (Milcheck.diag_to_string d)) q.mil;
    List.iter (fun d -> Printf.printf "  eff: %s\n" (Milcheck.diag_to_string d)) q.eff;
    List.iter (fun d -> Printf.printf "  bound: %s\n" (Milcheck.diag_to_string d)) q.bound
