(* Effect-and-aliasing verdicts over an analysed bundle, plus the
   runtime sanitizer.  The effect signatures and column provenance are
   part of Milcheck's per-node fact; this module reads them.  See
   effcheck.mli for the model. *)

open Milcheck

type verdict = {
  nodes : int;
  shared_columns : int;
  partitions : int;
  hazards : diag list;
  safe : Mil.t -> bool;
}

let verdict (t : Milcheck.t) =
  let all = t.nodes in
  let n = List.length all in
  (* Reference counts per origin: a column slot is shared when one of
     its origins is a catalog column or is reachable from two or more
     slots of the DAG. *)
  let refs = Hashtbl.create 64 in
  let bump o = Hashtbl.replace refs o (1 + Option.value ~default:0 (Hashtbl.find_opt refs o)) in
  List.iter
    (fun i ->
      ISet.iter bump i.head_orig;
      ISet.iter bump i.tail_orig)
    all;
  let origin_shared o = o < 0 || Option.value ~default:0 (Hashtbl.find_opt refs o) >= 2 in
  let slot_shared set = ISet.exists origin_shared set in
  let shared_columns =
    List.fold_left
      (fun acc i ->
        acc
        + (if slot_shared i.head_orig then 1 else 0)
        + if slot_shared i.tail_orig then 1 else 0)
      0 all
  in
  (* Hazard lint. *)
  let hazards = ref [] in
  let add severity (i : fact) fmt =
    Printf.ksprintf
      (fun message ->
        hazards := { severity; path = i.path; op = Mil.op_name i.node; message } :: !hazards)
      fmt
  in
  let written_origins (i : fact) =
    List.fold_left
      (fun acc (k, c) ->
        ISet.union acc (match c with Head -> i.kids.(k).head_orig | Tail -> i.kids.(k).tail_orig))
      ISet.empty i.eff.writes
  in
  List.iter
    (fun i ->
      if i.eff.undeclared then
        add Error i
          "foreign operator has no effect declaration — assumed to alias and mutate its \
           arguments; declare it in the extension's foreign_ops"
      else begin
        (match i.eff.writes with
        | [] -> ()
        | ws ->
          let target = written_origins i in
          if ISet.exists (fun o -> o < 0) target then
            add Error i
              "mutation under sharing: writes argument columns aliasing the catalog — the \
               store itself would change"
          else if ISet.exists origin_shared target then
            add Error i
              "mutation under sharing: writes argument columns that other plan nodes alias"
          else
            add Warning i
              "declares a write effect on %d private column(s) — the algebra assumes pure \
               producers; a memoised result would expose the mutation"
              (List.length ws));
        match i.eff.impure with
        | Some name ->
          add Warning i
            "effectful operator %S under a memoising executor — a memo hit elides its side \
             effect"
            name
        | None -> ()
      end)
    all;
  (* Relative order of two effectful operators is only fixed when one
     is an ancestor of the other (evaluation is children-first);
     otherwise Milopt rewrites and memo elision can reorder them. *)
  let imp_below = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let s =
        Array.fold_left
          (fun acc k -> ISet.union acc (Hashtbl.find imp_below k.id))
          ISet.empty i.kids
      in
      let s = if i.eff.impure <> None then ISet.add i.id s else s in
      Hashtbl.replace imp_below i.id s)
    all;
  let impures = List.filter (fun i -> i.eff.impure <> None) all in
  let rec first_unordered = function
    | [] -> None
    | a :: rest -> (
      match
        List.find_opt
          (fun b ->
            (not (ISet.mem b.id (Hashtbl.find imp_below a.id)))
            && not (ISet.mem a.id (Hashtbl.find imp_below b.id)))
          rest
      with
      | Some b -> Some (a, b)
      | None -> first_unordered rest)
  in
  (match first_unordered impures with
  | Some (a, b) ->
    add Warning b
      "non-commutable effect ordering: %s and %s are not ancestor-related, so rewrites \
       and memoisation give their effects no fixed order"
      (Mil.op_name a.node) (Mil.op_name b.node)
  | None -> ());
  (* Partition the DAG: writers conflict with every observer of the
     written columns, and effectful operators serialise with each
     other.  Everything left is provably independent. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  (match impures with
  | first :: rest -> List.iter (fun i -> union first.id i.id) rest
  | [] -> ());
  List.iter
    (fun i ->
      match i.eff.writes with
      | [] -> ()
      | ws ->
        let target = written_origins i in
        List.iter (fun (k, _) -> union i.id i.kids.(k).id) ws;
        List.iter
          (fun j ->
            if
              j.id <> i.id
              && ((not (ISet.is_empty (ISet.inter target j.head_orig)))
                 || not (ISet.is_empty (ISet.inter target j.tail_orig)))
            then union i.id j.id)
          all)
    all;
  let partitions =
    let roots = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      Hashtbl.replace roots (find i) ()
    done;
    Hashtbl.length roots
  in
  let hazards = List.rev !hazards in
  (* A node is parallel-safe when its whole partition is effect-free:
     no write effects, no impure operators, no undeclared foreigns.
     Nodes outside the analyzed plans are unknown, hence unsafe. *)
  let unsafe_roots = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if i.eff.writes <> [] || i.eff.impure <> None || i.eff.undeclared then
        Hashtbl.replace unsafe_roots (find i.id) ())
    all;
  let safe plan =
    match Mil.Tbl.find_opt t.table plan with
    | Some i -> not (Hashtbl.mem unsafe_roots (find i.id))
    | None -> false
  in
  { nodes = n; shared_columns; partitions; hazards; safe }

(* {1 Runtime sanitizer} *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* Keyed by physical identity.  The hash must NOT look at cell
   contents: the table's whole purpose is to survive an operator
   mutating a tagged column, and a content hash would then miss the
   column's own entry.  (ty, length) is mutation-stable — [Column.set]
   can change neither. *)
module Coltbl = Hashtbl.Make (struct
  type t = Column.t

  let equal = ( == )
  let hash col = Hashtbl.hash (Column.ty col, Column.length col)
end)

type tag = { t_origin : string; t_fp : int }

type sanitizer = {
  s_env : Milcheck.env;
  s_session : Mil.session;
  s_cols : tag Coltbl.t;  (* provenance + fingerprint per physical column *)
  s_done : Bat.t Mil.Tbl.t;  (* nodes already checked *)
}

let fingerprint col =
  let n = Column.length col in
  let h = ref (Hashtbl.hash (Column.ty col, n)) in
  for i = 0 to n - 1 do
    h := (!h * 0x01000193) lxor Hashtbl.hash (Column.get col i)
  done;
  !h land max_int

let sanitizer env session =
  if not (Mil.cse_enabled session) then
    invalid_arg "Effcheck.sanitizer: the session must have CSE enabled";
  {
    s_env = env;
    s_session = session;
    s_cols = Coltbl.create 64;
    s_done = Mil.Tbl.create 64;
  }

let register san origin col =
  if Column.length col > 0 && not (Coltbl.mem san.s_cols col) then
    Coltbl.add san.s_cols col { t_origin = origin; t_fp = fingerprint col }

let verify_tag san col =
  match Coltbl.find_opt san.s_cols col with
  | Some tag when fingerprint col <> tag.t_fp ->
    violation "column allocated by %s was mutated in place" tag.t_origin
  | _ -> ()

(* A result column is either one of the declared alias sources or a
   genuinely fresh allocation; anything else aliasing tagged memory
   escapes the signature.  Zero-length columns are exempt: OCaml keeps
   one shared atom for every empty array. *)
let check_result_col san ~path ~plan ~which ~allowed col =
  if Column.length col = 0 then ()
  else if List.exists (fun c -> c == col) allowed then ()
  else
    match Coltbl.find_opt san.s_cols col with
    | Some tag ->
      violation "%s at %s: %s column aliases %s outside its effect signature"
        (Mil.op_name plan) path which tag.t_origin
    | None -> register san (Printf.sprintf "%s at %s (%s)" (Mil.op_name plan) path which) col

let rec sexec san path plan =
  match Mil.Tbl.find_opt san.s_done plan with
  | Some b -> b
  | None ->
    let kid_bats =
      Array.of_list (List.map (fun (p, k) -> sexec san p k) (Milcheck.kid_paths path plan))
    in
    (* The children's results sit in the session memo, so this only
       evaluates the node itself. *)
    let b = Mil.exec san.s_session plan in
    let eff = Milcheck.signature san.s_env plan in
    let resolve = function
      | Input (i, Head) -> Some (Bat.head kid_bats.(i))
      | Input (i, Tail) -> Some (Bat.tail kid_bats.(i))
      | CatalogCol (name, c) -> (
        match Catalog.find (Mil.catalog san.s_session) name with
        | None -> None
        | Some cb ->
          let col = match c with Head -> Bat.head cb | Tail -> Bat.tail cb in
          register san (Printf.sprintf "catalog %S" name) col;
          Some col)
    in
    let allowed al = List.filter_map resolve al.sources in
    check_result_col san ~path ~plan ~which:"head" ~allowed:(allowed eff.head) (Bat.head b);
    check_result_col san ~path ~plan ~which:"tail" ~allowed:(allowed eff.tail) (Bat.tail b);
    (* Input fingerprints must survive the operator — catches a writer
       red-handed instead of waiting for finish. *)
    Array.iter
      (fun kb ->
        verify_tag san (Bat.head kb);
        verify_tag san (Bat.tail kb))
      kid_bats;
    Mil.Tbl.add san.s_done plan b;
    b

let exec san plan = sexec san (Mil.op_name plan) plan

let finish san =
  Coltbl.iter
    (fun col tag ->
      if fingerprint col <> tag.t_fp then
        violation "column allocated by %s was mutated in place" tag.t_origin)
    san.s_cols
