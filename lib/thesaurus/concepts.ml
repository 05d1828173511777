module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Space = Mirror_ir.Space
module Search = Mirror_ir.Search
module Querynet = Mirror_ir.Querynet

(* A CONTREP collection: one pseudo-document per concept, whose
   context is the concept id.  [associate] hands the operator exactly
   the indexed BATs, so it reads the postings and never scans: nothing
   in [t] changes after [build], and equal evidence builds equal
   ([=]) thesauri. *)
type t = {
  space : Space.t;
  occ_ctx : Bat.t;
  occ_term : Bat.t;
  occ_tf : Bat.t;
  len : Bat.t;
  names : string array;  (** concept id -> visual word *)
}

let build evidence =
  (* Accumulate, per visual word, the tf-weighted text terms of the
     documents it occurs in. *)
  let pseudo : (string, (string, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if ev.Assoc.text <> [] && ev.Assoc.visual <> [] then
        List.iter
          (fun (concept, ctf) ->
            let bag =
              match Hashtbl.find_opt pseudo concept with
              | Some b -> b
              | None ->
                let b = Hashtbl.create 16 in
                Hashtbl.add pseudo concept b;
                order := concept :: !order;
                b
            in
            List.iter
              (fun (term, ttf) ->
                let prev = Option.value ~default:0.0 (Hashtbl.find_opt bag term) in
                Hashtbl.replace bag term (prev +. (ctf *. ttf)))
              ev.Assoc.text)
          ev.Assoc.visual)
    evidence;
  let names = Array.of_list (List.rev !order) in
  let space = Space.create "thesaurus" in
  let occ_ctx, occ_term, occ_tf, len =
    Search.index_bags space ~base:0
      (List.mapi
         (fun cid concept ->
           let bag = Hashtbl.find pseudo concept in
           let terms = Hashtbl.fold (fun term tf acc -> (term, tf) :: acc) bag [] in
           (* Deterministic order for reproducibility. *)
           (cid, List.sort (fun (a, _) (b, _) -> String.compare a b) terms))
         (Array.to_list names))
  in
  { space; occ_ctx; occ_term; occ_tf; len; names }

let concept_count t = Array.length t.names
let concepts t = Array.to_list t.names

(* Every concept scored over the dense domain of concept ids, so that
   [scores.(cid)] is concept [cid]'s score. *)
let associate t ?(limit = 10) query =
  let ids = Column.dense 0 (Array.length t.names) in
  let scores =
    Column.float_exn
      (Bat.tail
         (Search.getblnet_pairs ~space:t.space ~net:query ~occ_ctx:t.occ_ctx
            ~occ_term:t.occ_term ~occ_tf:t.occ_tf ~len:t.len ~dom:(Bat.make ids ids)))
  in
  List.init (Array.length scores) Fun.id
  |> List.sort (fun a b ->
         let r = Float.compare scores.(b) scores.(a) in
         if r <> 0 then r else Int.compare a b)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map (fun cid -> (t.names.(cid), scores.(cid)))

let formulate t ?(limit = 10) query =
  match associate t ~limit query with
  | [] -> Querynet.Sum []
  | ranked -> Querynet.Wsum (List.map (fun (c, w) -> (w, Querynet.Term (c, 1.0))) ranked)
